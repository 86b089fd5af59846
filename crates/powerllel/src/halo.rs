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

use std::ops::Range;
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

    /// The z face sent to or received from the neighbor `above` or
    /// below: `g` planes, interior y.
    fn z_face(&self, above: bool, ghost: bool) -> Face {
        Face {
            js: 0..self.ly as isize,
            ks: self.edge(self.lz, above, ghost),
        }
    }

    /// The y face sent to or received from the `hi` or lo y neighbor:
    /// `g` rows, interior z.
    fn y_face(&self, hi: bool, ghost: bool) -> Face {
        Face {
            js: self.edge(self.ly, hi, ghost),
            ks: 0..self.lz as isize,
        }
    }

    /// The `g` layers at the `hi` or lo edge of an interior extent `n`:
    /// its last/first interior layers, or the `ghost` layers beyond
    /// them.
    fn edge(&self, n: usize, hi: bool, ghost: bool) -> Range<isize> {
        let (g, n) = (self.g as isize, n as isize);
        let start = match (hi, ghost) {
            (false, false) => 0,
            (true, false) => n - g,
            (false, true) => -g,
            (true, true) => n,
        };
        start..start + g
    }

    /// The corner strip of y edge rows `js`: those rows over the
    /// z-ghost planes below, then above. A side without a z neighbor
    /// keeps its place in the strip but is neither packed nor unpacked
    /// (the wall boundary conditions fill those corners).
    fn corner_faces(&self, nb: &Neighbors, js: Range<isize>) -> [(Face, bool); 2] {
        let below = Face {
            js: js.clone(),
            ks: self.edge(self.lz, false, true),
        };
        let above = Face {
            js,
            ks: self.edge(self.lz, true, true),
        };
        [(below, nb.z_below.is_some()), (above, nb.z_above.is_some())]
    }

    fn pack_corner(
        &self,
        nb: &Neighbors,
        fields: &[&mut Field3],
        js: Range<isize>,
        mut at: usize,
        put: &mut impl FnMut(usize, &[f64]),
    ) {
        for (face, present) in self.corner_faces(nb, js) {
            if present {
                face.pack(fields, at, put);
            }
            at += face.elems(self.nx, self.nf);
        }
    }

    fn unpack_corner(
        &self,
        nb: &Neighbors,
        fields: &mut [&mut Field3],
        js: Range<isize>,
        mut at: usize,
        get: &mut impl FnMut(usize, &mut [f64]),
    ) {
        for (face, present) in self.corner_faces(nb, js) {
            if present {
                face.unpack(fields, at, get);
            }
            at += face.elems(self.nx, self.nf);
        }
    }
}

/// Packs rows into `stage` at their element offsets.
fn copy_to(stage: &mut [f64]) -> impl FnMut(usize, &[f64]) + '_ {
    |at, row| stage[at..at + row.len()].copy_from_slice(row)
}

/// Unpacks rows from `data` at their element offsets.
fn copy_from(data: &[f64]) -> impl FnMut(usize, &mut [f64]) + '_ {
    |at, row| row.copy_from_slice(&data[at..at + row.len()])
}

/// A block of x rows, `js × ks` in ghost coordinates, of every field in
/// turn: the unit halo messages are packed in. Rows are walked k-major,
/// field by field, and packed contiguously.
struct Face {
    js: Range<isize>,
    ks: Range<isize>,
}

impl Face {
    /// Packed length over `nf` fields of x extent `nx`.
    fn elems(&self, nx: usize, nf: usize) -> usize {
        nx * self.js.len() * self.ks.len() * nf
    }

    /// Hand each row to `put(element offset, row)`, from `at` on.
    fn pack(&self, fields: &[&mut Field3], mut at: usize, put: &mut impl FnMut(usize, &[f64])) {
        for f in fields {
            for k in self.ks.clone() {
                for j in self.js.clone() {
                    let row = f.row(j, k);
                    put(at, row);
                    at += row.len();
                }
            }
        }
    }

    /// Fill each row with `get(element offset, row)`, from `at` on.
    fn unpack(
        &self,
        fields: &mut [&mut Field3],
        mut at: usize,
        get: &mut impl FnMut(usize, &mut [f64]),
    ) {
        for f in fields.iter_mut() {
            for k in self.ks.clone() {
                for j in self.js.clone() {
                    let row = f.row_mut(j, k);
                    get(at, row);
                    at += row.len();
                }
            }
        }
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
        /// Packing buffer of the message being sent.
        stage: Vec<f64>,
    },
    Unr(Box<UnrHalo>),
}

/// Receives of one exchange, each marked with the side it comes from
/// (`true`: above in z, hi in y).
struct MpiPending {
    z_recvs: Vec<(RecvReq, bool)>,
    y_recvs: Vec<(RecvReq, bool)>,
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
                stage: Vec::new(),
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

    // ---- protocol -----------------------------------------------------------

    /// Pack the faces and post all transfers (non-blocking). The UNR
    /// backend packs straight into its registered send region.
    pub fn start(&mut self, fields: &mut [&mut Field3]) {
        assert!(!self.started, "halo start() called twice");
        assert_eq!(fields.len(), self.shape.nf);
        self.started = true;
        let (shape, nb) = (&self.shape, &self.nb);

        match &mut self.imp {
            Imp::Mpi {
                comm,
                pending,
                stage,
            } => {
                let mut isend = |face: Face, dst: usize, tag: i32| {
                    stage.clear();
                    stage.resize(face.elems(shape.nx, shape.nf), 0.0);
                    face.pack(fields, 0, &mut copy_to(stage));
                    comm.isend(dst, tag, as_bytes(stage))
                };
                let mut p = MpiPending {
                    z_recvs: Vec::new(),
                    y_recvs: Vec::new(),
                    c_recvs: Vec::new(),
                    sends: Vec::new(),
                };
                if let Some(below) = nb.z_below {
                    p.z_recvs.push((comm.irecv(Some(below), self.tz), false));
                    let face = shape.z_face(false, false);
                    p.sends.push(isend(face, below, self.tz + 1));
                }
                if let Some(above) = nb.z_above {
                    p.z_recvs.push((comm.irecv(Some(above), self.tz + 1), true));
                    let face = shape.z_face(true, false);
                    p.sends.push(isend(face, above, self.tz));
                }
                p.y_recvs.push((comm.irecv(Some(nb.y_lo), self.ty), false));
                p.y_recvs
                    .push((comm.irecv(Some(nb.y_hi), self.ty + 1), true));
                let face = shape.y_face(false, false);
                p.sends.push(isend(face, nb.y_lo, self.ty + 1));
                let face = shape.y_face(true, false);
                p.sends.push(isend(face, nb.y_hi, self.ty));
                if self.corners {
                    p.c_recvs.push((comm.irecv(Some(nb.y_lo), self.tc), false));
                    p.c_recvs
                        .push((comm.irecv(Some(nb.y_hi), self.tc + 1), true));
                }
                *pending = Some(p);
            }
            Imp::Unr(u) => {
                let (yb, zb) = (shape.y_elems(), shape.z_elems());
                let mut put = |at: usize, row: &[f64]| u.send_mem.write_slice(at, row);
                if nb.z_below.is_some() {
                    shape.z_face(false, false).pack(fields, 2 * yb, &mut put);
                }
                if nb.z_above.is_some() {
                    shape
                        .z_face(true, false)
                        .pack(fields, 2 * yb + zb, &mut put);
                }
                shape.y_face(false, false).pack(fields, 0, &mut put);
                shape.y_face(true, false).pack(fields, yb, &mut put);
                u.z_plan.start(&u.unr).expect("z halo puts");
                u.y_plan.start(&u.unr).expect("y halo puts");
            }
        }
    }

    /// Wait for all transfers, unpack ghosts, run the corner round. The
    /// UNR backend unpacks straight from its registered receive region.
    pub fn finish(&mut self, fields: &mut [&mut Field3]) {
        assert!(self.started, "halo finish() without start()");
        self.started = false;
        let (shape, nb) = (&self.shape, &self.nb);
        let (lo_edge, hi_edge) = (
            shape.edge(shape.ly, false, false),
            shape.edge(shape.ly, true, false),
        );
        let ghost_rows = |hi: bool| shape.edge(shape.ly, hi, true);

        match &mut self.imp {
            Imp::Mpi {
                comm,
                pending,
                stage,
            } => {
                let p = pending.take().expect("pending exchange");
                let recv = |r: RecvReq| vec_from_bytes::<f64>(&comm.wait_recv(r).data);
                // z ghosts first.
                for (r, above) in p.z_recvs {
                    let data = recv(r);
                    shape
                        .z_face(above, true)
                        .unpack(fields, 0, &mut copy_from(&data));
                }
                // Corner strips can go out now.
                let mut csends = Vec::new();
                if self.corners {
                    for (js, dst, tag) in
                        [(lo_edge, nb.y_lo, self.tc + 1), (hi_edge, nb.y_hi, self.tc)]
                    {
                        stage.clear();
                        stage.resize(2 * shape.corner_elems(), 0.0);
                        shape.pack_corner(nb, fields, js, 0, &mut copy_to(stage));
                        csends.push(comm.isend(dst, tag, as_bytes(stage)));
                    }
                }
                // y faces.
                for (r, hi) in p.y_recvs {
                    let data = recv(r);
                    shape
                        .y_face(hi, true)
                        .unpack(fields, 0, &mut copy_from(&data));
                }
                // Corners in.
                for (r, hi) in p.c_recvs {
                    let data = recv(r);
                    shape.unpack_corner(nb, fields, ghost_rows(hi), 0, &mut copy_from(&data));
                }
                for s in p.sends.into_iter().chain(csends) {
                    comm.wait_send(s);
                }
            }
            Imp::Unr(u) => {
                let (yb, zb) = (shape.y_elems(), shape.z_elems());
                let (c_at, cb) = (2 * yb + 2 * zb, 2 * shape.corner_elems());
                let mut get = |at: usize, row: &mut [f64]| u.recv_mem.read_slice(at, row);
                // z ghosts.
                if let Some(sig) = &u.z_recv_sig {
                    u.unr.sig_wait(sig).expect("z halo recv");
                    if nb.z_above.is_some() {
                        shape.z_face(true, true).unpack(fields, 2 * yb, &mut get);
                    }
                    if nb.z_below.is_some() {
                        shape
                            .z_face(false, true)
                            .unpack(fields, 2 * yb + zb, &mut get);
                    }
                    sig.reset().expect("z recv signal clean");
                }
                // Launch corner strips.
                if self.corners {
                    let mut put = |at: usize, row: &[f64]| u.send_mem.write_slice(at, row);
                    shape.pack_corner(nb, fields, lo_edge, c_at, &mut put);
                    shape.pack_corner(nb, fields, hi_edge, c_at + cb, &mut put);
                    u.c_plan.start(&u.unr).expect("corner puts");
                }
                // y ghosts.
                u.unr.sig_wait(&u.y_recv_sig).expect("y halo recv");
                shape.y_face(true, true).unpack(fields, 0, &mut get);
                shape.y_face(false, true).unpack(fields, yb, &mut get);
                u.y_recv_sig.reset().expect("y recv signal clean");
                // Corners.
                if let Some(sig) = &u.c_recv_sig {
                    u.unr.sig_wait(sig).expect("corner recv");
                    shape.unpack_corner(nb, fields, ghost_rows(true), c_at, &mut get);
                    shape.unpack_corner(nb, fields, ghost_rows(false), c_at + cb, &mut get);
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
