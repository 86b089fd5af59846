//! Length-prefixed framing for the netfab wire protocol.
//!
//! Every message on a netfab socket — data-plane or bootstrap — is one
//! frame:
//!
//! ```text
//! [len: u32 LE][kind: u8][body: len-1 bytes]
//! ```
//!
//! `len` counts the kind byte plus the body, so a frame occupies
//! `4 + len` bytes on the wire. All integers are little-endian.
//!
//! ## Data-plane frame kinds
//!
//! | kind | name      | body layout                                                        |
//! |------|-----------|--------------------------------------------------------------------|
//! | 1    | `HELLO`   | `rank u32, nic u32` — stream identification after connect          |
//! | 2    | `PUT`     | `region u32, offset u64, custom u128, payload…`                    |
//! | 3    | `GET_REQ` | `region u32, offset u64, len u64, custom_remote u128, reply_region u32, reply_offset u64, custom_local u128` |
//! | 4    | `GET_REP` | `reply_region u32, reply_offset u64, custom_local u128, payload…`  |
//! | 5    | `ATOMIC`  | `custom u128` — bare atomic-add-sink delivery, no data             |
//! | 6    | `CTRL`    | opaque `unr_core::wire` control message (seq/ack/companion)        |
//!
//! The `custom` fields are the 128-bit custom bits of the emulated RMA
//! completion: a [`unr_core::Notif`] under the channel's
//! `Encoding::Full128`. The receiver's reader thread hands them to the
//! fabric's atomic-add sink, which applies `*p += a` on the signal
//! table — the level-2/level-4 emulation path of the paper, over real
//! sockets instead of simulated NICs.
//!
//! ## Bootstrap frame kinds (parent ⟷ child rendezvous)
//!
//! | kind | name      | body layout                                         |
//! |------|-----------|-----------------------------------------------------|
//! | 10   | `JOIN`    | `rank u32, nics u32, port u16 × nics`               |
//! | 11   | `TABLE`   | `nranks u32, nics u32, port u16 × (nranks × nics)`  |
//! | 12   | `GATHER`  | opaque contribution to a collective round           |
//! | 13   | `ALLDATA` | `nranks × (len u32, bytes)` — concatenated results  |
//! | 14   | `REJOIN`  | `epoch u64` — a rank died; re-run the rendezvous    |

use std::io::{self, Read, Write};

/// Stream identification right after connect: `rank u32, nic u32`.
pub const FRAME_HELLO: u8 = 1;
/// Emulated RMA put: header custom bits + payload.
pub const FRAME_PUT: u8 = 2;
/// Emulated RMA get request (carries the reply coordinates, so the
/// target needs no per-request state).
pub const FRAME_GET_REQ: u8 = 3;
/// Emulated RMA get reply: payload plus the echoed local custom bits.
pub const FRAME_GET_REP: u8 = 4;
/// Bare custom-bits delivery straight into the atomic-add sink.
pub const FRAME_ATOMIC: u8 = 5;
/// Opaque `unr_core::wire` control message (reliable transport, acks).
pub const FRAME_CTRL: u8 = 6;

/// Bootstrap: child announces `rank` and its per-NIC listener ports.
pub const FRAME_JOIN: u8 = 10;
/// Bootstrap: parent broadcasts the full rank×NIC port table.
pub const FRAME_TABLE: u8 = 11;
/// Bootstrap: one rank's contribution to a collective round.
pub const FRAME_GATHER: u8 = 12;
/// Bootstrap: the concatenated contributions of all ranks.
pub const FRAME_ALLDATA: u8 = 13;
/// Recovery: the parent interrupts a collective round because a rank
/// died and is being respawned; body is the new membership epoch
/// (`u64` LE). Survivors tear down their engine and re-run the
/// JOIN→TABLE rendezvous ([`crate::launch::NetWorld::rejoin`]).
pub const FRAME_REJOIN: u8 = 14;

/// Upper bound on a frame body; larger prefixes indicate a corrupt or
/// desynchronized stream and are rejected instead of allocated.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// One decoded frame: the kind byte and the raw body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind (`FRAME_*`).
    pub kind: u8,
    /// Body bytes (everything after the kind byte).
    pub body: Vec<u8>,
}

/// Start a frame whose body will be `body_len` bytes: the length prefix
/// and kind byte, in a buffer with room for the whole frame, so the
/// caller appends the body — header fields, then payload straight from
/// registered memory — without a second copy or a reallocation.
pub fn frame_prefix(kind: u8, body_len: usize) -> io::Result<Vec<u8>> {
    let len = 1 + body_len;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds MAX_FRAME_LEN"),
        ));
    }
    let mut buf = Vec::with_capacity(4 + len);
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    buf.push(kind);
    Ok(buf)
}

/// Encode one frame (prefix + kind + body parts) into a fresh buffer —
/// the unit the reactor's writer queues carry. A queued buffer is
/// always a whole frame, so the write state machine can park mid-buffer
/// on `WouldBlock` and resume without ever interleaving frames.
pub fn encode_frame(kind: u8, parts: &[&[u8]]) -> io::Result<Vec<u8>> {
    let mut buf = frame_prefix(kind, parts.iter().map(|p| p.len()).sum())?;
    for p in parts {
        buf.extend_from_slice(p);
    }
    Ok(buf)
}

/// Write one frame, assembling `parts` as the body. The frame is
/// buffered into a single `write_all` so concurrent writers holding the
/// stream lock emit whole frames.
pub fn write_frame(w: &mut impl Write, kind: u8, parts: &[&[u8]]) -> io::Result<()> {
    w.write_all(&encode_frame(kind, parts)?)
}

/// Why a frame read ended without producing a frame.
#[derive(Debug)]
pub enum ReadEnd {
    /// The peer closed the stream on a frame boundary (orderly
    /// teardown): EOF — or a connection reset, which a racing close of
    /// a loopback socket with in-flight data can produce — before the
    /// first prefix byte.
    CleanClose,
    /// The stream died mid-frame or delivered a corrupt length prefix;
    /// nothing after this point can be framed, so the stream must be
    /// latched down.
    Corrupt(io::Error),
}

/// Read one frame, classifying how the stream ended. A clean close can
/// only happen *between* frames (zero bytes of the next length prefix
/// read); a truncated prefix, a length outside `(0, MAX_FRAME_LEN]`
/// (validated before any allocation), or EOF mid-body is
/// [`ReadEnd::Corrupt`] — the reader cannot resynchronize.
pub fn read_frame_classified(r: &mut impl Read) -> Result<Frame, ReadEnd> {
    let mut lenb = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut lenb[got..]) {
            Ok(0) if got == 0 => return Err(ReadEnd::CleanClose),
            Ok(0) => {
                return Err(ReadEnd::Corrupt(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed mid-prefix",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if got == 0
                    && matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionReset | io::ErrorKind::ConnectionAborted
                    ) =>
            {
                return Err(ReadEnd::CleanClose)
            }
            Err(e) => return Err(ReadEnd::Corrupt(e)),
        }
    }
    let len = u32::from_le_bytes(lenb) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(ReadEnd::Corrupt(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        )));
    }
    let mut kindb = [0u8; 1];
    r.read_exact(&mut kindb).map_err(ReadEnd::Corrupt)?;
    let mut body = vec![0u8; len - 1];
    r.read_exact(&mut body).map_err(ReadEnd::Corrupt)?;
    Ok(Frame {
        kind: kindb[0],
        body,
    })
}

/// Read one frame (blocking). `Err(UnexpectedEof)` on clean stream
/// close between frames.
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut lenb = [0u8; 4];
    r.read_exact(&mut lenb)?;
    let len = u32::from_le_bytes(lenb) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    let mut kindb = [0u8; 1];
    r.read_exact(&mut kindb)?;
    let mut body = vec![0u8; len - 1];
    r.read_exact(&mut body)?;
    Ok(Frame {
        kind: kindb[0],
        body,
    })
}

/// Incremental frame reassembly for nonblocking streams — the read
/// state machine of the reactor.
///
/// A blocking reader can `read_exact` its way through a frame; a
/// nonblocking reactor gets bytes in whatever chunks the kernel has
/// ready, cut anywhere — mid-prefix, mid-kind, mid-body, or several
/// frames coalesced into one read. The assembler is a three-stage
/// machine fed arbitrary byte slices:
///
/// ```text
///           ┌──────── 4 bytes ────────┐┌ 1 ┐┌──── len−1 bytes ────┐
/// stream …  │ len (u32 LE, validated) ││kind││ body               │ …
///           └─────────────────────────┘└───┘└────────────────────┘
///  stage:         Prefix                Kind        Body     → emit
/// ```
///
/// * `len` is validated against `(0, MAX_FRAME_LEN]` the moment its
///   fourth byte arrives — before any body allocation;
/// * every completed frame is handed to the sink callback immediately,
///   so one `feed` can emit many frames (coalescing) or none (a split);
/// * [`mid_frame`](FrameAssembler::mid_frame) reports whether EOF right
///   now would be a clean close (frame boundary) or a truncation.
pub struct FrameAssembler {
    prefix: [u8; 4],
    prefix_got: usize,
    /// Body length + 1 for the kind byte, once the prefix is complete.
    need: usize,
    kind: u8,
    have_kind: bool,
    body: Vec<u8>,
    /// A corrupt prefix was seen; all further input is rejected.
    poisoned: bool,
}

impl Default for FrameAssembler {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameAssembler {
    /// A fresh assembler, positioned on a frame boundary.
    pub fn new() -> FrameAssembler {
        FrameAssembler {
            prefix: [0u8; 4],
            prefix_got: 0,
            need: 0,
            kind: 0,
            have_kind: false,
            body: Vec::new(),
            poisoned: false,
        }
    }

    /// Whether any bytes of an unfinished frame are buffered. EOF while
    /// `mid_frame()` is a truncation ([`ReadEnd::Corrupt`] territory);
    /// EOF on a boundary is a clean close.
    pub fn mid_frame(&self) -> bool {
        self.prefix_got > 0 || self.poisoned
    }

    /// Consume `data`, invoking `sink` once per completed frame, in
    /// stream order. `Err` means a corrupt length prefix (zero or above
    /// [`MAX_FRAME_LEN`]): the stream cannot be resynchronized and must
    /// be latched down. After an error the assembler is poisoned and
    /// keeps rejecting input.
    pub fn feed(&mut self, mut data: &[u8], sink: &mut impl FnMut(Frame)) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "assembler poisoned by an earlier corrupt prefix",
            ));
        }
        loop {
            if self.prefix_got < 4 {
                if data.is_empty() {
                    return Ok(());
                }
                let take = (4 - self.prefix_got).min(data.len());
                self.prefix[self.prefix_got..self.prefix_got + take]
                    .copy_from_slice(&data[..take]);
                self.prefix_got += take;
                data = &data[take..];
                if self.prefix_got < 4 {
                    return Ok(());
                }
                let len = u32::from_le_bytes(self.prefix) as usize;
                if len == 0 || len > MAX_FRAME_LEN {
                    // Poison: mid_frame() stays true, so EOF here
                    // classifies as corrupt too.
                    self.poisoned = true;
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad frame length {len}"),
                    ));
                }
                self.need = len;
                self.have_kind = false;
                self.body.clear();
                self.body.reserve(len - 1);
            }
            if !self.have_kind {
                let Some((&k, rest)) = data.split_first() else {
                    return Ok(());
                };
                self.kind = k;
                self.have_kind = true;
                data = rest;
            }
            let body_need = self.need - 1;
            if self.body.len() < body_need {
                let take = (body_need - self.body.len()).min(data.len());
                self.body.extend_from_slice(&data[..take]);
                data = &data[take..];
            }
            if self.body.len() < body_need {
                return Ok(()); // data exhausted mid-body
            }
            sink(Frame {
                kind: self.kind,
                body: std::mem::take(&mut self.body),
            });
            self.prefix_got = 0;
            self.need = 0;
            self.have_kind = false;
        }
    }
}

/// Shortest body a frame of `kind` can have: the fixed header its
/// `parse_*` function indexes. A receiver checks this before parsing,
/// so a short body from a peer is a protocol error instead of a panic.
pub fn min_body_len(kind: u8) -> usize {
    match kind {
        FRAME_HELLO => 8,
        FRAME_PUT | FRAME_GET_REP => 28,
        FRAME_GET_REQ => 64,
        FRAME_ATOMIC => 16,
        _ => 0,
    }
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("u32 field"))
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("u64 field"))
}

fn u128_at(b: &[u8], at: usize) -> u128 {
    u128::from_le_bytes(b[at..at + 16].try_into().expect("u128 field"))
}

/// Encode a `HELLO` body.
pub fn hello_body(rank: usize, nic: usize) -> [u8; 8] {
    let mut b = [0u8; 8];
    b[0..4].copy_from_slice(&(rank as u32).to_le_bytes());
    b[4..8].copy_from_slice(&(nic as u32).to_le_bytes());
    b
}

/// Decode a `HELLO` body: `(rank, nic)`.
pub fn parse_hello(b: &[u8]) -> (usize, usize) {
    (u32_at(b, 0) as usize, u32_at(b, 4) as usize)
}

/// Encode a `PUT` header (payload appended separately).
pub fn put_header(region: u32, offset: u64, custom: u128) -> [u8; 28] {
    let mut b = [0u8; 28];
    b[0..4].copy_from_slice(&region.to_le_bytes());
    b[4..12].copy_from_slice(&offset.to_le_bytes());
    b[12..28].copy_from_slice(&custom.to_le_bytes());
    b
}

/// Decode a `PUT` body: `(region, offset, custom, payload)`.
pub fn parse_put(b: &[u8]) -> (u32, u64, u128, &[u8]) {
    (u32_at(b, 0), u64_at(b, 4), u128_at(b, 12), &b[28..])
}

/// Encode a `GET_REQ` body. The request carries the requester's reply
/// coordinates and local custom bits so the target can answer
/// statelessly.
pub fn get_req_body(
    region: u32,
    offset: u64,
    len: u64,
    custom_remote: u128,
    reply_region: u32,
    reply_offset: u64,
    custom_local: u128,
) -> [u8; 64] {
    let mut b = [0u8; 64];
    b[0..4].copy_from_slice(&region.to_le_bytes());
    b[4..12].copy_from_slice(&offset.to_le_bytes());
    b[12..20].copy_from_slice(&len.to_le_bytes());
    b[20..36].copy_from_slice(&custom_remote.to_le_bytes());
    b[36..40].copy_from_slice(&reply_region.to_le_bytes());
    b[40..48].copy_from_slice(&reply_offset.to_le_bytes());
    b[48..64].copy_from_slice(&custom_local.to_le_bytes());
    b
}

/// A decoded `GET_REQ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetReq {
    /// Source region on the target rank.
    pub region: u32,
    /// Source offset inside the region.
    pub offset: u64,
    /// Bytes to read.
    pub len: u64,
    /// Custom bits applied on the *target* (remote GET notification).
    pub custom_remote: u128,
    /// Destination region back on the requester.
    pub reply_region: u32,
    /// Destination offset back on the requester.
    pub reply_offset: u64,
    /// Custom bits echoed in the reply and applied on the requester.
    pub custom_local: u128,
}

/// Decode a `GET_REQ` body.
pub fn parse_get_req(b: &[u8]) -> GetReq {
    GetReq {
        region: u32_at(b, 0),
        offset: u64_at(b, 4),
        len: u64_at(b, 12),
        custom_remote: u128_at(b, 20),
        reply_region: u32_at(b, 36),
        reply_offset: u64_at(b, 40),
        custom_local: u128_at(b, 48),
    }
}

/// Encode a `GET_REP` header (payload appended separately).
pub fn get_rep_header(reply_region: u32, reply_offset: u64, custom_local: u128) -> [u8; 28] {
    let mut b = [0u8; 28];
    b[0..4].copy_from_slice(&reply_region.to_le_bytes());
    b[4..12].copy_from_slice(&reply_offset.to_le_bytes());
    b[12..28].copy_from_slice(&custom_local.to_le_bytes());
    b
}

/// Decode a `GET_REP` body: `(reply_region, reply_offset, custom_local,
/// payload)`.
pub fn parse_get_rep(b: &[u8]) -> (u32, u64, u128, &[u8]) {
    (u32_at(b, 0), u64_at(b, 4), u128_at(b, 12), &b[28..])
}

/// Encode an `ATOMIC` body.
pub fn atomic_body(custom: u128) -> [u8; 16] {
    custom.to_le_bytes()
}

/// Decode an `ATOMIC` body.
pub fn parse_atomic(b: &[u8]) -> u128 {
    u128_at(b, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_PUT, &[&put_header(7, 96, 0xabcd), b"payload"]).unwrap();
        let f = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(f.kind, FRAME_PUT);
        let (region, offset, custom, payload) = parse_put(&f.body);
        assert_eq!((region, offset, custom), (7, 96, 0xabcd));
        assert_eq!(payload, b"payload");
    }

    #[test]
    fn get_req_roundtrip() {
        let body = get_req_body(3, 128, 64, 1 << 80, 9, 256, 2 << 80);
        let g = parse_get_req(&body);
        assert_eq!(g.region, 3);
        assert_eq!(g.offset, 128);
        assert_eq!(g.len, 64);
        assert_eq!(g.custom_remote, 1 << 80);
        assert_eq!(g.reply_region, 9);
        assert_eq!(g.reply_offset, 256);
        assert_eq!(g.custom_local, 2 << 80);
    }

    #[test]
    fn rejects_oversized_length_prefix() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.push(FRAME_PUT);
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn hello_roundtrip() {
        let b = hello_body(3, 1);
        assert_eq!(parse_hello(&b), (3, 1));
    }

    #[test]
    fn assembler_emits_zero_body_frame_ending_on_chunk_edge() {
        // [len=1][kind] with the stream cut exactly after the kind byte:
        // the frame must be emitted by this feed, leaving the assembler
        // on a boundary (EOF now is a clean close, not a truncation).
        let bytes = encode_frame(FRAME_CTRL, &[]).unwrap();
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        asm.feed(&bytes, &mut |f| got.push(f)).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].kind, FRAME_CTRL);
        assert!(got[0].body.is_empty());
        assert!(!asm.mid_frame());
    }

    #[test]
    fn assembler_rejects_corrupt_prefix_and_stays_poisoned() {
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        assert!(asm.feed(&0u32.to_le_bytes(), &mut |f| got.push(f)).is_err());
        assert!(asm.mid_frame(), "EOF after a bad prefix must be corrupt");
        // Even valid bytes are rejected afterwards: no resync.
        let ok = encode_frame(FRAME_CTRL, &[b"x"]).unwrap();
        assert!(asm.feed(&ok, &mut |f| got.push(f)).is_err());
        assert!(got.is_empty());
    }

    #[test]
    fn assembler_coalesces_and_splits() {
        // Three frames concatenated, fed in one call: all emitted.
        let mut wire = Vec::new();
        wire.extend_from_slice(&encode_frame(FRAME_PUT, &[&put_header(1, 2, 3), b"abc"]).unwrap());
        wire.extend_from_slice(&encode_frame(FRAME_ATOMIC, &[&atomic_body(42)]).unwrap());
        wire.extend_from_slice(&encode_frame(FRAME_CTRL, &[b"zz"]).unwrap());
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        asm.feed(&wire, &mut |f| got.push(f)).unwrap();
        assert_eq!(
            got.iter().map(|f| f.kind).collect::<Vec<_>>(),
            vec![FRAME_PUT, FRAME_ATOMIC, FRAME_CTRL]
        );
        // Same wire fed one byte at a time: byte-identical frames.
        let mut asm = FrameAssembler::new();
        let mut trickled = Vec::new();
        for b in &wire {
            asm.feed(std::slice::from_ref(b), &mut |f| trickled.push(f))
                .unwrap();
        }
        assert_eq!(got, trickled);
        assert!(!asm.mid_frame());
    }

    #[test]
    fn classified_read_distinguishes_clean_close_from_corruption() {
        // EOF on the frame boundary: clean close.
        assert!(matches!(
            read_frame_classified(&mut (&[] as &[u8])),
            Err(ReadEnd::CleanClose)
        ));
        // Truncated length prefix: corrupt.
        assert!(matches!(
            read_frame_classified(&mut (&[5u8, 0] as &[u8])),
            Err(ReadEnd::Corrupt(_))
        ));
        // Oversized length prefix: corrupt, rejected before allocating.
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame_classified(&mut buf.as_slice()),
            Err(ReadEnd::Corrupt(_))
        ));
        // Zero length prefix: corrupt (a frame always has a kind byte).
        assert!(matches!(
            read_frame_classified(&mut (&0u32.to_le_bytes()[..])),
            Err(ReadEnd::Corrupt(_))
        ));
        // Stream dies mid-body: corrupt.
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_CTRL, &[b"hello"]).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(matches!(
            read_frame_classified(&mut buf.as_slice()),
            Err(ReadEnd::Corrupt(_))
        ));
        // A whole frame still parses, and the next read is a clean close.
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_CTRL, &[b"hello"]).unwrap();
        let mut r = buf.as_slice();
        let f = read_frame_classified(&mut r).unwrap();
        assert_eq!((f.kind, f.body.as_slice()), (FRAME_CTRL, b"hello".as_slice()));
        assert!(matches!(
            read_frame_classified(&mut r),
            Err(ReadEnd::CleanClose)
        ));
    }
}
