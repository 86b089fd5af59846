//! The wire lock: one seeded raw-fabric program that drives every
//! transmission the fabric has — puts, `put_bytes`, gets and datagrams —
//! through the NIC and loopback models, the fault layer and both
//! completion routes (CQ and level-4 sink), and pins a hash of all of
//! it: the trace JSON, every CQ and port pop, the target memory and the
//! `simnet.*` metrics JSON.
//!
//! A refactor of `fabric.rs` keeps both constants. A change to either
//! means the fabric posts, draws, schedules or notifies differently, not
//! just that its code moved. On a mismatch the assertion prints the new
//! value.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use unr_simnet::{
    AtomicAddSink, FabricConfig, FaultConfig, GetOp, InterfaceKind, InterfaceSpec, NicModel,
    NicSel, Ns, PutOp, RKey, Sched, SEC,
};

/// Handshake port, outside the fault scope.
const HELLO: u32 = 1;
/// A second port outside the fault scope.
const CLEAR: u32 = 2;
/// Datagram port inside the fault scope.
const LOSSY: u32 = 7;
/// Port the put companions land on.
const COMP: u32 = 9;
/// Bytes of each rank's live region.
const LEN: usize = 256;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// A level-4 sink that logs every addend it applies.
#[derive(Default)]
struct CountingSink(Mutex<Vec<(Ns, u128)>>);

impl AtomicAddSink for CountingSink {
    fn apply(&self, _sched: &mut Sched, t: Ns, custom: u128) {
        self.0.lock().unwrap().push((t, custom));
    }
}

fn config(iface: InterfaceSpec) -> FabricConfig {
    FabricConfig {
        nodes: 2,
        ranks_per_node: 2,
        nics_per_node: 2,
        nic: NicModel::new(1.2, 100.0).with_jitter(0.2),
        intra: NicModel::new(0.3, 400.0).with_jitter(0.2),
        iface,
        cq_capacity: 4096,
        seed: 0x3141,
        virtual_time_cap: 10 * SEC,
        trace: true,
        faults: FaultConfig {
            drop_prob: 0.1,
            dup_prob: 0.2,
            delay_prob: 0.25,
            delay_max: 3_000,
            reorder_prob: 0.1,
            dgram_ports: Some(vec![LOSSY]),
            seed: 0xD1CE,
            ..FaultConfig::none()
        },
    }
}

/// Run the program on `iface` and hash everything it observed.
fn wire_hash(iface: InterfaceSpec) -> u64 {
    let fabric = unr_simnet::Fabric::new(config(iface));
    let logs = unr_simnet::run_on_fabric(&fabric, |ep| {
        let me = ep.rank();
        let n = ep.world_size();
        let mut log = String::new();
        // Rank 3 installs no sink: on a level-4 spec its completions
        // fall back to the CQ.
        let sink = Arc::new(CountingSink::default());
        if me != 3 {
            ep.set_add_sink(sink.clone());
        }
        let cq = ep.create_cq();
        let mine = ep.register(LEN, &cq);
        let doomed = ep.register(64, &cq);
        let hello = ep.open_port(HELLO);
        let clear = ep.open_port(CLEAR);
        let lossy = ep.open_port(LOSSY);
        let comp = ep.open_port(COMP);
        mine.write_bytes(0, &[me as u8 + 0x10; LEN]).unwrap();
        // Announce both regions, then deregister the second: every put
        // and get aimed at it arrives after it is gone.
        let mut ids = Vec::new();
        ids.extend_from_slice(&mine.rkey.id.to_le_bytes());
        ids.extend_from_slice(&doomed.rkey.id.to_le_bytes());
        for p in (0..n).filter(|&p| p != me) {
            ep.send_dgram(p, HELLO, ids.clone(), NicSel::Auto);
        }
        ep.deregister(&doomed);
        let mut keys = vec![None; n];
        for _ in 0..n - 1 {
            let d = ep.recv_dgram(&hello);
            let id = |k: usize| u32::from_le_bytes(d.bytes[4 * k..4 * k + 4].try_into().unwrap());
            let key = |id, len| RKey {
                rank: d.src,
                id,
                len,
            };
            keys[d.src] = Some((key(id(0), LEN), key(id(1), 64)));
        }

        let local_bits = 0xAAAA_BBBB_CCCC_DDDD_EEEE_FFFF_0000_1111u128 ^ me as u128;
        let remote_bits = 0x1234_5678_9ABC_DEF0_1122_3344_5566_7788u128 << me;
        for (k, p) in [(me + 1) % n, (me + 2) % n, (me + 3) % n]
            .into_iter()
            .enumerate()
        {
            let (live, dead) = keys[p].unwrap();
            let nic = [NicSel::Auto, NicSel::Index(1), NicSel::Index(0)][k];
            let off = 8 * (me + 4 * k);
            let put = |len: usize, dst: RKey, local: bool, remote: bool, companion: bool| {
                ep.put(PutOp {
                    src: &mine,
                    src_offset: off,
                    len,
                    dst,
                    dst_offset: off,
                    nic,
                    custom_local: local_bits + len as u128,
                    custom_remote: remote_bits + len as u128,
                    local_cq: local.then(|| Arc::clone(&cq)),
                    notify_remote: remote,
                    companion: companion.then(|| (COMP, vec![me as u8, p as u8, len as u8])),
                })
            };
            let get = |len: usize, src: RKey, local: bool, remote: bool| {
                ep.get(GetOp {
                    dst: &mine,
                    dst_offset: LEN - len,
                    len,
                    src,
                    src_offset: off,
                    nic,
                    custom_local: local_bits ^ len as u128,
                    custom_remote: remote_bits ^ len as u128,
                    local_cq: local.then(|| Arc::clone(&cq)),
                    notify_remote: remote,
                })
            };
            let r = [
                put(8, live, true, true, false),
                put(64, live, false, true, true),
                put(24, live, true, false, false),
                put(16, live, false, false, true),
                put(8, dead, true, true, false),
                ep.put_bytes(vec![0xC0 | me as u8; 40], live, off + 64, nic, None),
                ep.put_bytes(
                    vec![0xE0 | me as u8; 12],
                    live,
                    off + 104,
                    nic,
                    Some((COMP, vec![0xEE, me as u8])),
                ),
                get(32, live, true, false),
                get(16, live, false, true),
                get(8, live, true, true),
                get(8, dead, true, false),
                put(8, RKey { rank: n, ..live }, true, true, false),
                ep.put_bytes(vec![0; 8], live, 0, NicSel::Index(2), None),
            ];
            writeln!(log, "ops->{p}: {r:?}").unwrap();
            ep.send_dgram(p, LOSSY, vec![me as u8; 20 + k], nic);
            ep.send_dgram(p, CLEAR, vec![me as u8; 4 + k], NicSel::Index(1 - k % 2));
            ep.advance(700 * (k as Ns + 1));
        }
        ep.sleep(2_000_000);

        while let Some(c) = cq.try_pop() {
            writeln!(log, "cq {:?} {:#x} nic{} t{}", c.kind, c.custom, c.nic, c.t).unwrap();
        }
        for (name, port) in [
            ("hello", &hello),
            ("clear", &clear),
            ("lossy", &lossy),
            ("comp", &comp),
        ] {
            while let Some(d) = port.try_pop() {
                writeln!(log, "{name} src{} t{} {:?}", d.src, d.t, d.bytes).unwrap();
            }
        }
        for (t, custom) in sink.0.lock().unwrap().iter() {
            writeln!(log, "sink t{t} {custom:#x}").unwrap();
        }
        let mut mem = vec![0u8; LEN];
        mine.read_bytes(0, &mut mem).unwrap();
        writeln!(log, "mem {mem:?}").unwrap();
        log
    });

    let snap = fabric.obs.metrics.snapshot();
    assert!(snap
        .with_prefix("")
        .all(|(name, _)| name.starts_with("simnet.")));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fnv1a(
        &mut h,
        fabric.tracer.as_ref().unwrap().to_chrome_json().as_bytes(),
    );
    for log in &logs {
        fnv1a(&mut h, log.as_bytes());
    }
    fnv1a(&mut h, snap.to_json().as_bytes());
    h
}

const WIRE_LOCK_VERBS: u64 = 0x7f9ee21e6751223a;
const WIRE_LOCK_HARDWARE: u64 = 0x385ae9a4ad81faed;

#[test]
fn verbs_wire_is_locked() {
    let h = wire_hash(InterfaceSpec::lookup(InterfaceKind::Verbs));
    assert_eq!(h, wire_hash(InterfaceSpec::lookup(InterfaceKind::Verbs)));
    assert_eq!(h, WIRE_LOCK_VERBS, "Verbs wire hash is now {h:#018x}");
}

#[test]
fn hardware_add_wire_is_locked() {
    let spec = InterfaceSpec::lookup(InterfaceKind::Verbs).with_hardware_atomic_add();
    let h = wire_hash(spec);
    assert_eq!(h, wire_hash(spec));
    assert_eq!(h, WIRE_LOCK_HARDWARE, "level-4 wire hash is now {h:#018x}");
}
