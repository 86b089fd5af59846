//! Halo exchange with optional computation–communication overlap
//! (paper Fig 3b/3d, §V-C.1 and the Fig 7 observation that the velocity
//! update's communication is "completely overlapped by computation").
//!
//! The exchange is split into [`HaloOp::start`] (pack + post all puts /
//! sends) and [`HaloOp::finish`] (wait + unpack), so the caller can
//! compute interior cells in between. Three message groups:
//!
//! 1. **z faces** (interior y) to the z neighbors (walls: none);
//! 2. **y faces** (interior z) to the two periodic y neighbors;
//! 3. **corner strips**: once the z-ghost layers have arrived, their
//!    y-edges are forwarded to the y neighbors to fill the diagonal
//!    ghost cells the cross-derivative stencils read. (Wall-side
//!    corners are produced locally by the wall boundary conditions.)
//!
//! For the UNR backend, build **two** exchanger instances and alternate
//! them between RK substeps: each epoch's signal reset is implicitly
//! pre-synchronized by the other epoch's traffic (paper Fig 3d).

use std::sync::Arc;

use unr_core::{convert, RmaPlan, Signal, Unr};
use unr_minimpi::{Comm, RecvReq, SendReq};
use unr_simnet::mem::{as_bytes, vec_from_bytes};

use crate::backend::Backend;
use crate::decomp::Decomp;
use crate::field::Field3;

const TAG_Y: i32 = 100;
const TAG_Z: i32 = 120;
const TAG_C: i32 = 140;

struct Shape {
    nx: usize,
    ly: usize,
    lz: usize,
    g: usize,
    nf: usize,
}

impl Shape {
    fn y_elems(&self) -> usize {
        self.nx * self.g * self.lz * self.nf
    }
    fn z_elems(&self) -> usize {
        self.nx * self.g * self.ly * self.nf
    }
    /// One corner strip (one z side, one y edge), all fields.
    fn corner_elems(&self) -> usize {
        self.nx * self.g * self.g * self.nf
    }
}

struct Neighbors {
    y_lo: usize,
    y_hi: usize,
    z_below: Option<usize>,
    z_above: Option<usize>,
}

enum Imp {
    Mpi {
        comm: Comm,
        pending: Option<MpiPending>,
    },
    Unr(Box<UnrHalo>),
}

struct MpiPending {
    z_recvs: Vec<(RecvReq, isize)>,
    y_recvs: Vec<(RecvReq, bool)>, // (req, is_from_lo)
    c_recvs: Vec<(RecvReq, bool)>,
    sends: Vec<SendReq>,
}

struct UnrHalo {
    unr: Arc<Unr>,
    send_mem: unr_core::UnrMem,
    recv_mem: unr_core::UnrMem,
    z_plan: RmaPlan,
    y_plan: RmaPlan,
    c_plan: RmaPlan,
    z_recv_sig: Option<Signal>,
    z_send_sig: Option<Signal>,
    y_recv_sig: Signal,
    y_send_sig: Signal,
    c_recv_sig: Option<Signal>,
    c_send_sig: Option<Signal>,
}

/// A persistent halo exchanger for `nf` same-shaped fields.
pub struct HaloOp {
    shape: Shape,
    nb: Neighbors,
    corners: bool,
    imp: Imp,
    started: bool,
    /// Instance-scoped MPI tags (mirrors the UNR path's tag scoping, so
    /// concurrent exchanger instances can never cross-match).
    ty: i32,
    tz: i32,
    tc: i32,
}

impl HaloOp {
    /// Collective over `d.world`. `instance` disambiguates tag spaces of
    /// multiple exchangers.
    pub fn new(backend: &Backend, d: &Decomp, g: usize, nf: usize, instance: i32) -> HaloOp {
        let shape = Shape {
            nx: d.nx,
            ly: d.ly,
            lz: d.lz,
            g,
            nf,
        };
        let (y_lo, y_hi) = d.y_neighbors();
        let (z_below, z_above) = d.z_neighbors();
        let nb = Neighbors {
            y_lo,
            y_hi,
            z_below,
            z_above,
        };
        // Corner strips only matter when real z-halo traffic exists.
        let corners = z_below.is_some() || z_above.is_some();
        let imp = match backend {
            Backend::Mpi => Imp::Mpi {
                comm: d.world.clone(),
                pending: None,
            },
            Backend::Unr(unr) => Imp::Unr(Box::new(Self::build_unr(
                unr, d, &shape, &nb, corners, instance,
            ))),
        };
        HaloOp {
            shape,
            nb,
            corners,
            imp,
            started: false,
            ty: TAG_Y + 2 * instance,
            tz: TAG_Z + 2 * instance,
            tc: TAG_C + 2 * instance,
        }
    }

    fn build_unr(
        unr: &Arc<Unr>,
        d: &Decomp,
        shape: &Shape,
        nb: &Neighbors,
        corners: bool,
        instance: i32,
    ) -> UnrHalo {
        let yb = shape.y_elems() * 8;
        let zb = shape.z_elems() * 8;
        let cb = 2 * shape.corner_elems() * 8; // [below|above] strips
                                               // Send layout:  [y->lo | y->hi | z->below | z->above | c->lo | c->hi]
                                               // Recv layout:  [y upper ghost | y lower ghost
                                               //                | z above ghost | z below ghost
                                               //                | c from hi | c from lo]
        let send_mem = unr.mem_reg(2 * yb + 2 * zb + 2 * cb + 64);
        let recv_mem = unr.mem_reg(2 * yb + 2 * zb + 2 * cb + 64);
        let comm = &d.world;
        let ty = TAG_Y + 2 * instance;
        let tz = TAG_Z + 2 * instance;
        let tc = TAG_C + 2 * instance;

        let z_msgs = nb.z_below.is_some() as i64 + nb.z_above.is_some() as i64;
        let z_recv_sig = (z_msgs > 0).then(|| unr.sig_init(z_msgs));
        let z_send_sig = (z_msgs > 0).then(|| unr.sig_init(z_msgs));
        let y_recv_sig = unr.sig_init(2);
        let y_send_sig = unr.sig_init(2);
        let c_recv_sig = corners.then(|| unr.sig_init(2));
        let c_send_sig = corners.then(|| unr.sig_init(2));

        // --- y faces: my upper ghost <- y_hi's bottom face, etc. -----
        let up_ghost = unr.blk_init(&recv_mem, 0, yb, Some(&y_recv_sig));
        let lo_ghost = unr.blk_init(&recv_mem, yb, yb, Some(&y_recv_sig));
        convert::send_blk(comm, nb.y_hi, ty, &up_ghost);
        convert::send_blk(comm, nb.y_lo, ty + 1, &lo_ghost);
        let bottom_tgt = convert::recv_blk(comm, nb.y_lo, ty);
        let top_tgt = convert::recv_blk(comm, nb.y_hi, ty + 1);
        let mut y_plan = RmaPlan::new();
        y_plan.put(
            &unr.blk_init(&send_mem, 0, yb, Some(&y_send_sig)),
            &bottom_tgt,
        );
        y_plan.put(
            &unr.blk_init(&send_mem, yb, yb, Some(&y_send_sig)),
            &top_tgt,
        );

        // --- z faces --------------------------------------------------
        let mut z_plan = RmaPlan::new();
        if z_msgs > 0 {
            let rs = z_recv_sig.as_ref().expect("z recv sig");
            let ss = z_send_sig.as_ref().expect("z send sig");
            if let Some(above) = nb.z_above {
                let above_ghost = unr.blk_init(&recv_mem, 2 * yb, zb, Some(rs));
                convert::send_blk(comm, above, tz, &above_ghost);
            }
            if let Some(below) = nb.z_below {
                let below_ghost = unr.blk_init(&recv_mem, 2 * yb + zb, zb, Some(rs));
                convert::send_blk(comm, below, tz + 1, &below_ghost);
            }
            if let Some(below) = nb.z_below {
                let tgt = convert::recv_blk(comm, below, tz);
                z_plan.put(&unr.blk_init(&send_mem, 2 * yb, zb, Some(ss)), &tgt);
            }
            if let Some(above) = nb.z_above {
                let tgt = convert::recv_blk(comm, above, tz + 1);
                z_plan.put(&unr.blk_init(&send_mem, 2 * yb + zb, zb, Some(ss)), &tgt);
            }
        }

        // --- corner strips ---------------------------------------------
        // My (j edge, z-ghost) strips go to the y neighbors: the strip
        // at my bottom y edge fills y_lo's upper-ghost corners, etc.
        let mut c_plan = RmaPlan::new();
        if corners {
            let rs = c_recv_sig.as_ref().expect("c recv sig");
            let ss = c_send_sig.as_ref().expect("c send sig");
            let from_hi = unr.blk_init(&recv_mem, 2 * yb + 2 * zb, cb, Some(rs));
            let from_lo = unr.blk_init(&recv_mem, 2 * yb + 2 * zb + cb, cb, Some(rs));
            convert::send_blk(comm, nb.y_hi, tc, &from_hi);
            convert::send_blk(comm, nb.y_lo, tc + 1, &from_lo);
            let lo_tgt = convert::recv_blk(comm, nb.y_lo, tc);
            let hi_tgt = convert::recv_blk(comm, nb.y_hi, tc + 1);
            c_plan.put(
                &unr.blk_init(&send_mem, 2 * yb + 2 * zb, cb, Some(ss)),
                &lo_tgt,
            );
            c_plan.put(
                &unr.blk_init(&send_mem, 2 * yb + 2 * zb + cb, cb, Some(ss)),
                &hi_tgt,
            );
        }
        UnrHalo {
            unr: Arc::clone(unr),
            send_mem,
            recv_mem,
            z_plan,
            y_plan,
            c_plan,
            z_recv_sig,
            z_send_sig,
            y_recv_sig,
            y_send_sig,
            c_recv_sig,
            c_send_sig,
        }
    }

    // ---- packing helpers ---------------------------------------------------

    fn pack_z(fields: &[&mut Field3], k0: isize, g: usize, out: &mut Vec<f64>) {
        out.clear();
        let mut tmp = Vec::new();
        for f in fields.iter() {
            f.pack_z(k0, g, &mut tmp);
            out.extend_from_slice(&tmp);
        }
    }

    fn unpack_z(fields: &mut [&mut Field3], k0: isize, g: usize, data: &[f64]) {
        let per = data.len() / fields.len();
        for (fi, f) in fields.iter_mut().enumerate() {
            f.unpack_z(k0, g, &data[fi * per..(fi + 1) * per]);
        }
    }

    /// y face over the interior z range only.
    fn pack_y(fields: &[&mut Field3], j0: isize, g: usize, lz: isize, out: &mut Vec<f64>) {
        out.clear();
        let mut tmp = Vec::new();
        for f in fields.iter() {
            f.pack_y(j0, g, 0, lz, &mut tmp);
            out.extend_from_slice(&tmp);
        }
    }

    fn unpack_y(fields: &mut [&mut Field3], j0: isize, g: usize, lz: isize, data: &[f64]) {
        let per = data.len() / fields.len();
        for (fi, f) in fields.iter_mut().enumerate() {
            f.unpack_y(j0, g, 0, lz, &data[fi * per..(fi + 1) * per]);
        }
    }

    /// Corner strip: my rows `j0..j0+g` over both z-ghost ranges
    /// ([below | above]; absent sides zero-filled).
    fn pack_corner(
        shape: &Shape,
        nb: &Neighbors,
        fields: &[&mut Field3],
        j0: isize,
        out: &mut Vec<f64>,
    ) {
        let g = shape.g;
        let lz = shape.lz as isize;
        out.clear();
        out.resize(2 * shape.corner_elems(), 0.0);
        let mut tmp = Vec::new();
        let mut off = 0;
        for below in [true, false] {
            let k0 = if below { -(g as isize) } else { lz };
            let present = if below {
                nb.z_below.is_some()
            } else {
                nb.z_above.is_some()
            };
            for f in fields.iter() {
                if present {
                    f.pack_y(j0, g, k0, k0 + g as isize, &mut tmp);
                    out[off..off + tmp.len()].copy_from_slice(&tmp);
                    off += tmp.len();
                } else {
                    off += shape.nx * g * g;
                }
            }
        }
        debug_assert_eq!(off, out.len());
    }

    fn unpack_corner(
        shape: &Shape,
        nb: &Neighbors,
        fields: &mut [&mut Field3],
        j0: isize,
        data: &[f64],
    ) {
        let g = shape.g;
        let lz = shape.lz as isize;
        let per = shape.nx * g * g;
        let mut off = 0;
        for below in [true, false] {
            let k0 = if below { -(g as isize) } else { lz };
            let present = if below {
                nb.z_below.is_some()
            } else {
                nb.z_above.is_some()
            };
            for f in fields.iter_mut() {
                if present {
                    f.unpack_y(j0, g, k0, k0 + g as isize, &data[off..off + per]);
                }
                off += per;
            }
        }
    }

    // ---- protocol -----------------------------------------------------------

    /// Pack the faces and post all transfers (non-blocking).
    pub fn start(&mut self, fields: &mut [&mut Field3]) {
        assert!(!self.started, "halo start() called twice");
        assert_eq!(fields.len(), self.shape.nf);
        self.started = true;
        let g = self.shape.g;
        let (ly, lz) = (self.shape.ly as isize, self.shape.lz as isize);
        let mut to_below = Vec::new();
        let mut to_above = Vec::new();
        if self.nb.z_below.is_some() {
            Self::pack_z(fields, 0, g, &mut to_below);
        }
        if self.nb.z_above.is_some() {
            Self::pack_z(fields, lz - g as isize, g, &mut to_above);
        }
        let mut bottom = Vec::new();
        let mut top = Vec::new();
        Self::pack_y(fields, 0, g, lz, &mut bottom);
        Self::pack_y(fields, ly - g as isize, g, lz, &mut top);

        match &mut self.imp {
            Imp::Mpi { comm, pending } => {
                let mut p = MpiPending {
                    z_recvs: Vec::new(),
                    y_recvs: Vec::new(),
                    c_recvs: Vec::new(),
                    sends: Vec::new(),
                };
                if let Some(below) = self.nb.z_below {
                    p.z_recvs
                        .push((comm.irecv(Some(below), self.tz), -(g as isize)));
                    p.sends
                        .push(comm.isend(below, self.tz + 1, as_bytes(&to_below)));
                }
                if let Some(above) = self.nb.z_above {
                    p.z_recvs.push((comm.irecv(Some(above), self.tz + 1), lz));
                    p.sends
                        .push(comm.isend(above, self.tz, as_bytes(&to_above)));
                }
                p.y_recvs
                    .push((comm.irecv(Some(self.nb.y_lo), self.ty), true));
                p.y_recvs
                    .push((comm.irecv(Some(self.nb.y_hi), self.ty + 1), false));
                p.sends
                    .push(comm.isend(self.nb.y_lo, self.ty + 1, as_bytes(&bottom)));
                p.sends
                    .push(comm.isend(self.nb.y_hi, self.ty, as_bytes(&top)));
                if self.corners {
                    p.c_recvs
                        .push((comm.irecv(Some(self.nb.y_lo), self.tc), true));
                    p.c_recvs
                        .push((comm.irecv(Some(self.nb.y_hi), self.tc + 1), false));
                }
                *pending = Some(p);
            }
            Imp::Unr(u) => {
                let yb = self.shape.y_elems();
                let zb = self.shape.z_elems();
                if self.nb.z_below.is_some() {
                    u.send_mem.write_slice(2 * yb, &to_below);
                }
                if self.nb.z_above.is_some() {
                    u.send_mem.write_slice(2 * yb + zb, &to_above);
                }
                u.send_mem.write_slice(0, &bottom);
                u.send_mem.write_slice(yb, &top);
                u.z_plan.start(&u.unr).expect("z halo puts");
                u.y_plan.start(&u.unr).expect("y halo puts");
            }
        }
    }

    /// Wait for all transfers, unpack ghosts, run the corner round.
    pub fn finish(&mut self, fields: &mut [&mut Field3]) {
        assert!(self.started, "halo finish() without start()");
        self.started = false;
        let g = self.shape.g;
        let (ly, lz) = (self.shape.ly as isize, self.shape.lz as isize);

        match &mut self.imp {
            Imp::Mpi { comm, pending } => {
                let p = pending.take().expect("pending exchange");
                // z ghosts first.
                for (r, k0) in p.z_recvs {
                    let msg = comm.wait_recv(r);
                    Self::unpack_z(fields, k0, g, &vec_from_bytes::<f64>(&msg.data));
                }
                // Corner strips can go out now.
                let mut csends = Vec::new();
                if self.corners {
                    let mut strip_lo = Vec::new();
                    let mut strip_hi = Vec::new();
                    Self::pack_corner(&self.shape, &self.nb, fields, 0, &mut strip_lo);
                    Self::pack_corner(
                        &self.shape,
                        &self.nb,
                        fields,
                        ly - g as isize,
                        &mut strip_hi,
                    );
                    csends.push(comm.isend(self.nb.y_lo, self.tc + 1, as_bytes(&strip_lo)));
                    csends.push(comm.isend(self.nb.y_hi, self.tc, as_bytes(&strip_hi)));
                }
                // y faces.
                for (r, is_lo) in p.y_recvs {
                    let msg = comm.wait_recv(r);
                    let data = vec_from_bytes::<f64>(&msg.data);
                    let j0 = if is_lo { -(g as isize) } else { ly };
                    Self::unpack_y(fields, j0, g, lz, &data);
                }
                // Corners in.
                for (r, is_lo) in p.c_recvs {
                    let msg = comm.wait_recv(r);
                    let data = vec_from_bytes::<f64>(&msg.data);
                    let j0 = if is_lo { -(g as isize) } else { ly };
                    Self::unpack_corner(&self.shape, &self.nb, fields, j0, &data);
                }
                for s in p.sends {
                    comm.wait_send(s);
                }
                for s in csends {
                    comm.wait_send(s);
                }
            }
            Imp::Unr(u) => {
                let yb = self.shape.y_elems();
                let zb = self.shape.z_elems();
                let cb = 2 * self.shape.corner_elems();
                // z ghosts.
                if let Some(sig) = &u.z_recv_sig {
                    u.unr.sig_wait(sig).expect("z halo recv");
                    let mut buf = vec![0.0f64; zb];
                    if self.nb.z_above.is_some() {
                        u.recv_mem.read_slice(2 * yb, &mut buf);
                        Self::unpack_z(fields, lz, g, &buf);
                    }
                    if self.nb.z_below.is_some() {
                        u.recv_mem.read_slice(2 * yb + zb, &mut buf);
                        Self::unpack_z(fields, -(g as isize), g, &buf);
                    }
                    sig.reset().expect("z recv signal clean");
                }
                // Launch corner strips.
                if self.corners {
                    let mut strip_lo = Vec::new();
                    let mut strip_hi = Vec::new();
                    Self::pack_corner(&self.shape, &self.nb, fields, 0, &mut strip_lo);
                    Self::pack_corner(
                        &self.shape,
                        &self.nb,
                        fields,
                        ly - g as isize,
                        &mut strip_hi,
                    );
                    u.send_mem.write_slice(2 * yb + 2 * zb, &strip_lo);
                    u.send_mem.write_slice(2 * yb + 2 * zb + cb, &strip_hi);
                    u.c_plan.start(&u.unr).expect("corner puts");
                }
                // y ghosts.
                u.unr.sig_wait(&u.y_recv_sig).expect("y halo recv");
                {
                    let mut buf = vec![0.0f64; yb];
                    u.recv_mem.read_slice(0, &mut buf);
                    Self::unpack_y(fields, ly, g, lz, &buf);
                    u.recv_mem.read_slice(yb, &mut buf);
                    Self::unpack_y(fields, -(g as isize), g, lz, &buf);
                }
                u.y_recv_sig.reset().expect("y recv signal clean");
                // Corners.
                if let Some(sig) = &u.c_recv_sig {
                    u.unr.sig_wait(sig).expect("corner recv");
                    let mut buf = vec![0.0f64; cb];
                    u.recv_mem.read_slice(2 * yb + 2 * zb, &mut buf);
                    Self::unpack_corner(&self.shape, &self.nb, fields, ly, &buf);
                    u.recv_mem.read_slice(2 * yb + 2 * zb + cb, &mut buf);
                    Self::unpack_corner(&self.shape, &self.nb, fields, -(g as isize), &buf);
                    sig.reset().expect("corner recv signal clean");
                }
                // Send completions (source buffers reusable next epoch).
                if let Some(sig) = &u.z_send_sig {
                    u.unr.sig_wait(sig).expect("z halo send");
                    sig.reset().expect("z send signal clean");
                }
                u.unr.sig_wait(&u.y_send_sig).expect("y halo send");
                u.y_send_sig.reset().expect("y send signal clean");
                if let Some(sig) = &u.c_send_sig {
                    u.unr.sig_wait(sig).expect("corner send");
                    sig.reset().expect("corner send signal clean");
                }
            }
        }
    }

    /// Blocking exchange (= `start` + `finish`).
    pub fn exchange(&mut self, fields: &mut [&mut Field3]) {
        self.start(fields);
        self.finish(fields);
    }
}
