//! Wire-framing suite for the one accept/connection loop
//! (`greenness_serve::server`), run against **both** front ends that sit on
//! it: a plain `Server` and a `Server` over the fleet router.
//!
//! The loop owns newline framing, and that is all this file checks: however
//! the bytes of a request stream are split across `write`s, every non-blank
//! line gets exactly one reply line, in order, a line may be long but not
//! unbounded (and the one refused for it is counted), and a `shutdown` op
//! drains.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use greenness_fleet::{Fleet, FleetConfig};
use greenness_serve::{Server, ServiceConfig};

/// A request line (no newline) the reply to which carries `"id":<id>`.
fn whatif(id: u32) -> String {
    format!(
        r#"{{"schema":"greenness-serve/v1","id":{id},"op":"whatif","params":{{"bytes":1048576}}}}"#
    )
}

/// One framing case: the byte chunks to `write` (a pause longer than the
/// loop's read tick separates them, so a split line really is seen in two
/// reads) and, per expected reply line, the substrings it must contain.
struct Case {
    name: &'static str,
    writes: Vec<Vec<u8>>,
    replies: Vec<Vec<&'static str>>,
}

fn cases() -> Vec<Case> {
    let (a, b) = (whatif(1), whatif(2));
    let (head, tail) = a.split_at(a.len() / 2);
    // Under the line cap, so served: buffering and parsing it must be linear
    // (it was quadratic twice over — the reply took longer than `drive`'s
    // read timeout behind the fleet).
    let long = a.replace(
        "{\"bytes\"",
        &format!("{{\"pad\":\"{}\",\"bytes\"", "x".repeat(900 << 10)),
    );
    vec![
        Case {
            name: "a 900 KiB line is served",
            writes: vec![format!("{long}\n").into_bytes()],
            replies: vec![vec!["\"id\":1,", "\"ok\":true"]],
        },
        Case {
            name: "request split across two writes",
            writes: vec![head.as_bytes().to_vec(), format!("{tail}\n").into_bytes()],
            replies: vec![vec!["\"id\":1,", "\"ok\":true"]],
        },
        Case {
            name: "two requests in one write",
            writes: vec![format!("{a}\n{b}\n").into_bytes()],
            replies: vec![
                vec!["\"id\":1,", "\"ok\":true"],
                vec!["\"id\":2,", "\"ok\":true"],
            ],
        },
        Case {
            name: "blank lines are skipped",
            writes: vec![format!("\n  \r\n\t\n{a}\n\n").into_bytes()],
            replies: vec![vec!["\"id\":1,", "\"ok\":true"]],
        },
        Case {
            name: "a non-UTF-8 line gets one structured error",
            writes: vec![b"{\"schema\":\xff\xfe\x80}\n".to_vec()],
            replies: vec![vec!["\"ok\":false", "\"code\":\"bad_request\""]],
        },
    ]
}

/// Drive one case over a fresh connection. A sentinel request follows the
/// case's bytes, so reading `replies.len() + 1` lines and finding the
/// sentinel last proves the loop emitted no extra line in between.
fn drive(front: &str, addr: &str, case: &Case) {
    let what = format!("{front}: {}", case.name);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    for (i, bytes) in case.writes.iter().enumerate() {
        if i > 0 {
            std::thread::sleep(Duration::from_millis(120));
        }
        stream.write_all(bytes).expect("write");
    }
    stream
        .write_all(b"{\"schema\":\"greenness-serve/v1\",\"id\":\"end\",\"op\":\"metrics\"}\n")
        .expect("write sentinel");
    let mut lines = BufReader::new(stream).lines();
    for expect in &case.replies {
        let line = lines.next().expect("a reply line").expect("read");
        for needle in expect {
            assert!(line.contains(needle), "{what}: {needle} not in {line}");
        }
    }
    let last = lines.next().expect("the sentinel's reply").expect("read");
    assert!(
        last.contains("\"id\":\"end\","),
        "{what}: extra line {last}"
    );
}

/// A line that outgrows the loop's cap without a newline is refused once,
/// with a structured error, and the connection is closed on it.
fn oversized_line_is_refused(front: &str, addr: &str) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    // The server hangs up about half way through, so the tail of this write
    // may fail; what matters is what it said first.
    let _ = stream.write_all(&vec![b'a'; 2 << 20]);
    let mut lines = BufReader::new(stream).lines();
    let reply = lines.next().expect("a reply line").expect("read");
    for needle in [
        "\"id\":null,",
        "\"code\":\"bad_request\"",
        "request line exceeds 1048576 bytes",
    ] {
        assert!(reply.contains(needle), "{front}: {needle} not in {reply}");
    }
    // Then end of stream (or a reset, the blob's tail being unread): never
    // a second line.
    let after = lines.next();
    assert!(
        !matches!(after, Some(Ok(_))),
        "{front}: extra line {after:?}"
    );
    // The refusal is on the books of whichever front end made it.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"{\"schema\":\"greenness-serve/v1\",\"id\":0,\"op\":\"metrics\"}\n")
        .expect("write");
    let mut metrics = String::new();
    BufReader::new(stream)
        .read_line(&mut metrics)
        .expect("metrics reply");
    let counted = format!("\"{front}.bad_request\":1");
    assert!(
        metrics.contains(&counted),
        "{front}: {counted} not in {metrics}"
    );
}

/// One-shot clients come and go — the accept loop forgets each one's thread
/// once it has exited — and leave the loop as it was: whatever connects after
/// 64 of them is framed like the first connection.
fn one_shot_clients_come_and_go(front: &str, addr: &str) {
    for id in 0..64 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream
            .write_all(format!("{}\n", whatif(id)).as_bytes())
            .expect("write");
        let mut reply = String::new();
        BufReader::new(stream)
            .read_line(&mut reply)
            .expect("one-shot reply");
        assert!(reply.contains(&format!("\"id\":{id},")), "{front}: {reply}");
    }
}

/// A `shutdown` op is acked on the wire and stops the listener: the caller
/// goes on to `join`, which must return.
fn shutdown_over_the_wire(front: &str, addr: &str) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"{\"schema\":\"greenness-serve/v1\",\"id\":9,\"op\":\"shutdown\"}\n")
        .expect("write");
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .expect("shutdown reply");
    assert!(reply.contains("\"id\":9,"), "{front}: {reply}");
    assert!(reply.contains("draining"), "{front}: {reply}");
}

#[test]
fn framing_is_identical_behind_both_front_ends() {
    let serve = Server::start("127.0.0.1:0", ServiceConfig::default()).expect("bind serve");
    let fleet =
        Server::start_with_service("127.0.0.1:0", Arc::new(Fleet::new(FleetConfig::default())))
            .expect("bind fleet");
    let fronts = [
        ("serve", serve.addr().to_string()),
        ("fleet", fleet.addr().to_string()),
    ];
    for (front, addr) in &fronts {
        oversized_line_is_refused(front, addr);
        // A fresh connection after the refusal — here the 65th and on, the
        // one-shot clients having left — is served like any other.
        one_shot_clients_come_and_go(front, addr);
        for case in cases() {
            drive(front, addr, &case);
        }
        shutdown_over_the_wire(front, addr);
    }
    serve.join();
    fleet.join();
}
