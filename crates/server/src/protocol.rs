//! The framed binary request/response protocol.
//!
//! Messages are framed exactly like WAL records — `[body_len: u32 LE]
//! [crc32(body): u32 LE][body]` with `body = [request_id: u64 LE]
//! [tag: u8][payload]` — reusing [`alex_wal::crc32`] and the
//! [`WalCodec`] byte encodings so a key or value has one wire form
//! across the whole workspace. The framing means a byte-stream
//! transport (a socket adapter, a replay file) needs no extra
//! delimiting: a reader classifies every stopping point as a whole
//! message, a torn tail, or corruption, exactly as WAL recovery does.
//!
//! The `request_id` is an opaque correlation token: the server echoes
//! it on the response so clients may pipeline requests and match
//! replies out of order.
//!
//! In-process serving goes through the typed [`Request`] / [`Response`]
//! enums directly (no serialization on the hot path); the codec here
//! is the wire boundary a socket front-end would sit behind, and the
//! differential suite uses it to compare responses *byte-for-byte*.

use alex_wal::{crc32, WalCodec};

/// Cap on one message body, mirroring the WAL's frame cap: anything
/// larger is a corrupt length prefix, not a real message.
pub const MAX_MESSAGE_BODY: usize = 1 << 20;

const TAG_GET: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_REMOVE: u8 = 3;
const TAG_SCAN: u8 = 4;
const TAG_BATCH_GET: u8 = 5;
const TAG_BATCH_INSERT: u8 = 6;

const TAG_VALUE: u8 = 1;
const TAG_INSERTED: u8 = 2;
const TAG_REMOVED: u8 = 3;
const TAG_ENTRIES: u8 = 4;
const TAG_VALUES: u8 = 5;
const TAG_INSERTED_COUNT: u8 = 6;
const TAG_REJECTED: u8 = 7;
const TAG_UNAVAILABLE: u8 = 8;

/// [`Response::Rejected`] code: the request carried a key the index
/// reserves (the key type's sentinel), so the operation was refused
/// whole — nothing was applied.
pub const REJECT_UNSUPPORTED_KEY: u8 = 1;

/// One client operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Request<K, V> {
    /// Point lookup; answered by [`Response::Value`].
    Get { key: K },
    /// Point insert; answered by [`Response::Inserted`] (`false` if
    /// the key already existed — inserts never overwrite).
    Insert { key: K, value: V },
    /// Point delete; answered by [`Response::Removed`].
    Remove { key: K },
    /// Ordered scan of up to `limit` pairs from `start`; answered by
    /// [`Response::Entries`].
    Scan { start: K, limit: u32 },
    /// Batched lookups, **sorted ascending by key**; answered by
    /// [`Response::Values`] in the same order.
    BatchGet { keys: Vec<K> },
    /// Batched inserts, **sorted ascending by key**; answered by
    /// [`Response::InsertedCount`] (pairs that landed, i.e. whose key
    /// was absent).
    BatchInsert { pairs: Vec<(K, V)> },
}

/// The server's answer to one [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response<K, V> {
    Value(Option<V>),
    Inserted(bool),
    Removed(Option<V>),
    Entries(Vec<(K, V)>),
    Values(Vec<Option<V>>),
    InsertedCount(u64),
    /// The request was refused without applying anything; the payload
    /// is a reason code ([`REJECT_UNSUPPORTED_KEY`]). Write requests
    /// naming a reserved key answer with this instead of panicking the
    /// worker or silently dropping the op.
    Rejected(u8),
    /// The worker owning the request's key range died (it panicked)
    /// before answering. The outcome is unknown: a write may or may
    /// not have been applied. Later requests to that range answer this
    /// at once instead of blocking.
    Unavailable,
}

/// What a decoder found at one position in a byte stream.
#[derive(Debug)]
pub enum MessageOutcome<M> {
    /// A whole, checksummed message. `consumed` is its framed size.
    Ok { request_id: u64, message: M, consumed: usize },
    /// Bytes ran out mid-frame — wait for more input.
    Torn,
    /// Structurally complete but wrong: bad CRC, unknown tag, payload
    /// shape mismatch, or an absurd length prefix.
    Corrupt,
}

fn encode_option<V: WalCodec>(v: &Option<V>, out: &mut Vec<u8>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            v.encode_into(out);
        }
    }
}

fn decode_option<V: WalCodec>(cursor: &mut &[u8]) -> Option<Option<V>> {
    let (&flag, rest) = cursor.split_first()?;
    *cursor = rest;
    match flag {
        0 => Some(None),
        1 => Some(Some(V::decode_from(cursor)?)),
        _ => None,
    }
}

/// Reject a length prefix that promises more items than there are
/// bytes left (each item is at least one byte) before allocating.
fn read_count(cursor: &mut &[u8]) -> Option<usize> {
    let count = u32::decode_from(cursor)? as usize;
    if count > cursor.len() {
        return None;
    }
    Some(count)
}

fn frame_body(request_id: u64, tag: u8, payload: &[u8], out: &mut Vec<u8>) -> usize {
    let mut body = Vec::with_capacity(16 + payload.len());
    request_id.encode_into(&mut body);
    body.push(tag);
    body.extend_from_slice(payload);
    debug_assert!(body.len() <= MAX_MESSAGE_BODY);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    8 + body.len()
}

/// Append one framed request to `out`. Returns the framed size.
pub fn encode_request<K: WalCodec, V: WalCodec>(
    request_id: u64,
    request: &Request<K, V>,
    out: &mut Vec<u8>,
) -> usize {
    let mut payload = Vec::with_capacity(16);
    let tag = match request {
        Request::Get { key } => {
            key.encode_into(&mut payload);
            TAG_GET
        }
        Request::Insert { key, value } => {
            key.encode_into(&mut payload);
            value.encode_into(&mut payload);
            TAG_INSERT
        }
        Request::Remove { key } => {
            key.encode_into(&mut payload);
            TAG_REMOVE
        }
        Request::Scan { start, limit } => {
            start.encode_into(&mut payload);
            limit.encode_into(&mut payload);
            TAG_SCAN
        }
        Request::BatchGet { keys } => {
            (keys.len() as u32).encode_into(&mut payload);
            for key in keys {
                key.encode_into(&mut payload);
            }
            TAG_BATCH_GET
        }
        Request::BatchInsert { pairs } => {
            (pairs.len() as u32).encode_into(&mut payload);
            for (key, value) in pairs {
                key.encode_into(&mut payload);
                value.encode_into(&mut payload);
            }
            TAG_BATCH_INSERT
        }
    };
    frame_body(request_id, tag, &payload, out)
}

/// Append one framed response to `out`. Returns the framed size.
pub fn encode_response<K: WalCodec, V: WalCodec>(
    request_id: u64,
    response: &Response<K, V>,
    out: &mut Vec<u8>,
) -> usize {
    let mut payload = Vec::with_capacity(16);
    let tag = match response {
        Response::Value(v) => {
            encode_option(v, &mut payload);
            TAG_VALUE
        }
        Response::Inserted(ok) => {
            payload.push(u8::from(*ok));
            TAG_INSERTED
        }
        Response::Removed(v) => {
            encode_option(v, &mut payload);
            TAG_REMOVED
        }
        Response::Entries(pairs) => {
            (pairs.len() as u32).encode_into(&mut payload);
            for (key, value) in pairs {
                key.encode_into(&mut payload);
                value.encode_into(&mut payload);
            }
            TAG_ENTRIES
        }
        Response::Values(values) => {
            (values.len() as u32).encode_into(&mut payload);
            for v in values {
                encode_option(v, &mut payload);
            }
            TAG_VALUES
        }
        Response::InsertedCount(n) => {
            n.encode_into(&mut payload);
            TAG_INSERTED_COUNT
        }
        Response::Rejected(code) => {
            payload.push(*code);
            TAG_REJECTED
        }
        Response::Unavailable => TAG_UNAVAILABLE,
    };
    frame_body(request_id, tag, &payload, out)
}

/// Split a framed message off the front of `input`, returning its
/// `(request_id, tag, payload, consumed)` or a Torn/Corrupt verdict.
#[allow(clippy::type_complexity)]
fn open_frame(input: &[u8]) -> Result<Option<(u64, u8, &[u8], usize)>, ()> {
    if input.len() < 8 {
        return Ok(None); // Torn
    }
    let body_len = u32::from_le_bytes(input[0..4].try_into().expect("4 bytes")) as usize;
    if !(9..=MAX_MESSAGE_BODY).contains(&body_len) {
        return Err(()); // Corrupt length prefix
    }
    let expect_crc = u32::from_le_bytes(input[4..8].try_into().expect("4 bytes"));
    if input.len() < 8 + body_len {
        return Ok(None); // Torn
    }
    let body = &input[8..8 + body_len];
    if crc32(body) != expect_crc {
        return Err(());
    }
    let mut cursor = body;
    let Some(request_id) = u64::decode_from(&mut cursor) else {
        return Err(());
    };
    let Some((&tag, payload)) = cursor.split_first() else {
        return Err(());
    };
    Ok(Some((request_id, tag, payload, 8 + body_len)))
}

/// Decode the request at the front of `input`.
pub fn decode_request<K: WalCodec, V: WalCodec>(input: &[u8]) -> MessageOutcome<Request<K, V>> {
    let (request_id, tag, payload, consumed) = match open_frame(input) {
        Ok(None) => return MessageOutcome::Torn,
        Err(()) => return MessageOutcome::Corrupt,
        Ok(Some(parts)) => parts,
    };
    let mut cursor = payload;
    let message = match tag {
        TAG_GET => K::decode_from(&mut cursor).map(|key| Request::Get { key }),
        TAG_INSERT => K::decode_from(&mut cursor).and_then(|key| {
            V::decode_from(&mut cursor).map(|value| Request::Insert { key, value })
        }),
        TAG_REMOVE => K::decode_from(&mut cursor).map(|key| Request::Remove { key }),
        TAG_SCAN => K::decode_from(&mut cursor).and_then(|start| {
            u32::decode_from(&mut cursor).map(|limit| Request::Scan { start, limit })
        }),
        TAG_BATCH_GET => read_count(&mut cursor).and_then(|count| {
            let mut keys = Vec::with_capacity(count);
            for _ in 0..count {
                keys.push(K::decode_from(&mut cursor)?);
            }
            Some(Request::BatchGet { keys })
        }),
        TAG_BATCH_INSERT => read_count(&mut cursor).and_then(|count| {
            let mut pairs = Vec::with_capacity(count);
            for _ in 0..count {
                let key = K::decode_from(&mut cursor)?;
                let value = V::decode_from(&mut cursor)?;
                pairs.push((key, value));
            }
            Some(Request::BatchInsert { pairs })
        }),
        _ => None,
    };
    match message {
        Some(message) if cursor.is_empty() => MessageOutcome::Ok { request_id, message, consumed },
        _ => MessageOutcome::Corrupt,
    }
}

/// Decode the response at the front of `input`.
pub fn decode_response<K: WalCodec, V: WalCodec>(input: &[u8]) -> MessageOutcome<Response<K, V>> {
    let (request_id, tag, payload, consumed) = match open_frame(input) {
        Ok(None) => return MessageOutcome::Torn,
        Err(()) => return MessageOutcome::Corrupt,
        Ok(Some(parts)) => parts,
    };
    let mut cursor = payload;
    let message = match tag {
        TAG_VALUE => decode_option(&mut cursor).map(Response::Value),
        TAG_INSERTED => match cursor.split_first() {
            Some((&flag @ (0 | 1), rest)) => {
                cursor = rest;
                Some(Response::Inserted(flag == 1))
            }
            _ => None,
        },
        TAG_REMOVED => decode_option(&mut cursor).map(Response::Removed),
        TAG_ENTRIES => read_count(&mut cursor).and_then(|count| {
            let mut pairs = Vec::with_capacity(count);
            for _ in 0..count {
                let key = K::decode_from(&mut cursor)?;
                let value = V::decode_from(&mut cursor)?;
                pairs.push((key, value));
            }
            Some(Response::Entries(pairs))
        }),
        TAG_VALUES => read_count(&mut cursor).and_then(|count| {
            let mut values = Vec::with_capacity(count);
            for _ in 0..count {
                values.push(decode_option(&mut cursor)?);
            }
            Some(Response::Values(values))
        }),
        TAG_INSERTED_COUNT => u64::decode_from(&mut cursor).map(Response::InsertedCount),
        TAG_REJECTED => match cursor.split_first() {
            Some((&code, rest)) => {
                cursor = rest;
                Some(Response::Rejected(code))
            }
            None => None,
        },
        TAG_UNAVAILABLE => Some(Response::Unavailable),
        _ => None,
    };
    match message {
        Some(message) if cursor.is_empty() => MessageOutcome::Ok { request_id, message, consumed },
        _ => MessageOutcome::Corrupt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Req = Request<u64, u64>;
    type Resp = Response<u64, u64>;

    fn all_requests() -> Vec<Req> {
        vec![
            Request::Get { key: 42 },
            Request::Insert { key: 7, value: 700 },
            Request::Remove { key: 9 },
            Request::Scan { start: 100, limit: 25 },
            Request::BatchGet { keys: vec![1, 2, 3, 5, 8] },
            Request::BatchGet { keys: vec![] },
            Request::BatchInsert { pairs: vec![(10, 1), (20, 2), (30, 3)] },
            Request::BatchInsert { pairs: vec![] },
        ]
    }

    fn all_responses() -> Vec<Resp> {
        vec![
            Response::Value(Some(5)),
            Response::Value(None),
            Response::Inserted(true),
            Response::Inserted(false),
            Response::Removed(Some(11)),
            Response::Removed(None),
            Response::Entries(vec![(1, 2), (3, 4)]),
            Response::Entries(vec![]),
            Response::Values(vec![Some(1), None, Some(3)]),
            Response::InsertedCount(128),
            Response::Rejected(REJECT_UNSUPPORTED_KEY),
            Response::Unavailable,
        ]
    }

    #[test]
    fn every_message_round_trips_with_its_id() {
        for (id, req) in all_requests().into_iter().enumerate() {
            let id = id as u64 * 1000 + 17;
            let mut buf = Vec::new();
            let n = encode_request(id, &req, &mut buf);
            assert_eq!(n, buf.len());
            match decode_request::<u64, u64>(&buf) {
                MessageOutcome::Ok { request_id, message, consumed } => {
                    assert_eq!(request_id, id);
                    assert_eq!(message, req);
                    assert_eq!(consumed, n);
                }
                other => panic!("expected Ok for {req:?}, got {other:?}"),
            }
        }
        for (id, resp) in all_responses().into_iter().enumerate() {
            let id = id as u64;
            let mut buf = Vec::new();
            encode_response(id, &resp, &mut buf);
            match decode_response::<u64, u64>(&buf) {
                MessageOutcome::Ok { request_id, message, .. } => {
                    assert_eq!(request_id, id);
                    assert_eq!(message, resp);
                }
                other => panic!("expected Ok for {resp:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn back_to_back_messages_decode_in_sequence() {
        let mut buf = Vec::new();
        let reqs = all_requests();
        for (i, req) in reqs.iter().enumerate() {
            encode_request(i as u64, req, &mut buf);
        }
        let mut rest = &buf[..];
        for (i, req) in reqs.iter().enumerate() {
            match decode_request::<u64, u64>(rest) {
                MessageOutcome::Ok { request_id, message, consumed } => {
                    assert_eq!(request_id, i as u64);
                    assert_eq!(&message, req);
                    rest = &rest[consumed..];
                }
                other => panic!("message {i}: {other:?}"),
            }
        }
        assert!(rest.is_empty());
    }

    #[test]
    fn every_truncation_is_torn() {
        let mut buf = Vec::new();
        encode_request(3, &Request::<u64, u64>::BatchInsert { pairs: vec![(1, 2), (3, 4)] }, &mut buf);
        for cut in 0..buf.len() {
            assert!(
                matches!(decode_request::<u64, u64>(&buf[..cut]), MessageOutcome::Torn),
                "cut at {cut} must read as torn"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let mut pristine = Vec::new();
        encode_response(9, &Response::Values::<u64, u64>(vec![Some(1), None]), &mut pristine);
        for byte in 0..pristine.len() {
            for bit in 0..8 {
                let mut buf = pristine.clone();
                buf[byte] ^= 1 << bit;
                assert!(
                    matches!(
                        decode_response::<u64, u64>(&buf),
                        MessageOutcome::Torn | MessageOutcome::Corrupt
                    ),
                    "flip at byte {byte} bit {bit} must not decode"
                );
            }
        }
    }

    #[test]
    fn lying_counts_and_unknown_tags_are_corrupt() {
        // A count field promising more items than there are bytes.
        let mut body = Vec::new();
        77u64.encode_into(&mut body); // request_id
        body.push(TAG_BATCH_GET);
        u32::MAX.encode_into(&mut body); // count
        let mut buf = Vec::new();
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&body).to_le_bytes());
        buf.extend_from_slice(&body);
        assert!(matches!(decode_request::<u64, u64>(&buf), MessageOutcome::Corrupt));

        // An unknown tag with a valid CRC.
        let mut body = Vec::new();
        77u64.encode_into(&mut body);
        body.push(200);
        let mut buf = Vec::new();
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&body).to_le_bytes());
        buf.extend_from_slice(&body);
        assert!(matches!(decode_request::<u64, u64>(&buf), MessageOutcome::Corrupt));
        assert!(matches!(decode_response::<u64, u64>(&buf), MessageOutcome::Corrupt));

        // Trailing payload bytes after a complete message body.
        let mut body = Vec::new();
        5u64.encode_into(&mut body);
        body.push(TAG_GET);
        123u64.encode_into(&mut body);
        body.push(0xFF); // junk the decoder must not ignore
        let mut buf = Vec::new();
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&body).to_le_bytes());
        buf.extend_from_slice(&body);
        assert!(matches!(decode_request::<u64, u64>(&buf), MessageOutcome::Corrupt));
    }
}
