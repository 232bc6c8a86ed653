//! Daemon conformance: the socket front end must add **transport,
//! not semantics** — answers over loopback TCP (and unix sockets) are
//! bit-for-bit the answers of the same fabric driven in-process, under
//! concurrency, hostile disconnects, deadline expiry, and graceful
//! shutdown. Kill/restart recovery of the `bas-serverd` binary lives
//! with the binary, in `crates/server/tests/serverd_recovery.rs`.
//!
//! These tests exercise real sockets with real threads; CI runs them
//! under `--release` like the other serving suites.

use bias_aware_sketches::prelude::*;
use bias_aware_sketches::server::wire::{IngestFrame, PointQuery, RangeQuery, TenantRef};
use bias_aware_sketches::server::{
    read_frame, recover, serve_connection, write_frame, Client, Daemon, DaemonConfig, Deadlines,
    Fabric, FabricConfig, IngestBatcher, Journal, Request, Response, RetryPolicy, ServingMode,
    TenantSpec, WindowLen, MAX_FRAME_BYTES,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const N: u64 = 4_096;

fn params() -> SketchParams {
    SketchParams::new(N, 128, 5)
}

fn config() -> FabricConfig {
    FabricConfig::new(params())
}

/// Snappy deadlines for tests: 300 ms progress gaps, 10 s idle, 5 ms
/// polls.
fn daemon_config() -> DaemonConfig {
    DaemonConfig::new()
        .with_poll_interval(Duration::from_millis(5))
        .with_deadlines(
            Deadlines::new()
                .with_read(Some(Duration::from_millis(300)))
                .with_write(Some(Duration::from_millis(300)))
                .with_idle(Some(Duration::from_secs(10))),
        )
}

/// A deterministic per-tenant stream of integer-valued updates.
fn stream(tenant: u64, len: usize) -> Vec<(u64, f64)> {
    let mut state = tenant.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let item = (state >> 33) % N;
            let delta = ((state >> 11) % 5) as f64 + 1.0;
            (item, delta)
        })
        .collect()
}

fn expect_value(resp: Response) -> f64 {
    match resp {
        Response::Value(v) => v.value,
        other => panic!("expected a value, got {other:?}"),
    }
}

fn tcp_client(
    addr: std::net::SocketAddr,
) -> Client<TcpStream, impl FnMut() -> std::io::Result<TcpStream>> {
    Client::new(
        move || {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        },
        RetryPolicy::new().with_seed(addr.port() as u64),
        MAX_FRAME_BYTES,
    )
}

/// Concurrent TCP clients — one thread per tenant, each registering,
/// streaming, and querying over its own connection — get answers
/// bit-for-bit equal to one in-process fabric fed the same streams.
#[test]
fn concurrent_tcp_clients_match_in_process_fabric_bit_for_bit() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    fabric.add_shard(1, 1.0).unwrap();
    let daemon = Daemon::bind_tcp("127.0.0.1:0", fabric, None, daemon_config()).unwrap();
    let addr = daemon.local_addr().unwrap();

    let tenants: Vec<u64> = (1..=6).collect();
    let handles: Vec<_> = tenants
        .iter()
        .map(|&tenant| {
            std::thread::spawn(move || {
                let mut client = tcp_client(addr);
                let spec = TenantSpec::frequency(tenant, tenant * 100 + 1);
                match client.call(&Request::Register(spec)).unwrap() {
                    Response::Installed(_) => {}
                    other => panic!("{other:?}"),
                }
                client
                    .call(&Request::Ingest(IngestFrame {
                        tenant,
                        updates: stream(tenant, 3_000),
                    }))
                    .unwrap();
                client.call(&Request::Flush(TenantRef { tenant })).unwrap();
                let mut answers = Vec::new();
                for item in (0..N).step_by(97) {
                    answers.push(expect_value(
                        client
                            .call(&Request::Point(PointQuery { tenant, item }))
                            .unwrap(),
                    ));
                }
                (tenant, answers)
            })
        })
        .collect();
    let wire_answers: Vec<(u64, Vec<f64>)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    // The same tenants through one in-process fabric.
    let mut reference = Fabric::new(config());
    reference.add_shard(0, 1.0).unwrap();
    reference.add_shard(1, 1.0).unwrap();
    for &tenant in &tenants {
        reference
            .register_tenant(TenantSpec::frequency(tenant, tenant * 100 + 1))
            .unwrap();
        reference.handle(Request::Ingest(IngestFrame {
            tenant,
            updates: stream(tenant, 3_000),
        }));
        reference.handle(Request::Flush(TenantRef { tenant }));
    }
    for (tenant, answers) in wire_answers {
        for (i, item) in (0..N).step_by(97).enumerate() {
            let expected =
                expect_value(reference.handle(Request::Point(PointQuery { tenant, item })));
            assert_eq!(
                answers[i].to_bits(),
                expected.to_bits(),
                "tenant {tenant}, item {item}"
            );
        }
    }
    daemon.shutdown().unwrap();
}

/// The unix-socket transport serves through the identical loop: one
/// tenant registered and queried over a unix stream answers exactly
/// like the in-process dispatch on the same daemon.
#[test]
fn unix_socket_transport_matches_in_process_dispatch() {
    let sock = std::env::temp_dir().join(format!("bas-daemon-{}.sock", std::process::id()));
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    let daemon = Daemon::bind_unix(&sock, fabric, None, daemon_config()).unwrap();

    let sock_path = sock.clone();
    let mut client = Client::new(
        move || std::os::unix::net::UnixStream::connect(&sock_path),
        RetryPolicy::new(),
        MAX_FRAME_BYTES,
    );
    client
        .call(&Request::Register(TenantSpec::frequency(5, 55)))
        .unwrap();
    client
        .call(&Request::Ingest(IngestFrame {
            tenant: 5,
            updates: stream(5, 2_000),
        }))
        .unwrap();
    client
        .call(&Request::Flush(TenantRef { tenant: 5 }))
        .unwrap();
    let over_wire = expect_value(
        client
            .call(&Request::Point(PointQuery {
                tenant: 5,
                item: 11,
            }))
            .unwrap(),
    );
    let in_process = expect_value(daemon.fabric().handle(Request::Point(PointQuery {
        tenant: 5,
        item: 11,
    })));
    assert_eq!(over_wire.to_bits(), in_process.to_bits());
    drop(client);
    daemon.shutdown().unwrap();
    std::fs::remove_file(&sock).ok();
}

/// A connection that goes quiet beyond the idle deadline is closed by
/// the daemon — and the daemon keeps serving fresh connections.
#[test]
fn idle_connections_are_closed_at_the_deadline() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    let config = daemon_config().with_deadlines(
        Deadlines::new()
            .with_read(Some(Duration::from_millis(200)))
            .with_write(Some(Duration::from_millis(200)))
            .with_idle(Some(Duration::from_millis(150))),
    );
    let daemon = Daemon::bind_tcp("127.0.0.1:0", fabric, None, config).unwrap();
    let addr = daemon.local_addr().unwrap();

    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 1];
    // Say nothing: the daemon must hang up (EOF) rather than hold the
    // socket forever.
    match idle.read(&mut buf) {
        Ok(0) => {}
        other => panic!("expected EOF from idle cutoff, got {other:?}"),
    }

    // A fresh, active connection still serves.
    let mut client = tcp_client(addr);
    assert!(matches!(
        client.call(&Request::Ping).unwrap(),
        Response::Pong
    ));
    drop(client);
    daemon.shutdown().unwrap();
}

/// A peer that starts a frame and stalls mid-stream trips the read
/// deadline; a peer that disconnects mid-frame is dropped. Neither
/// disturbs other connections.
#[test]
fn mid_stream_stalls_and_disconnects_drop_only_that_connection() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    let daemon = Daemon::bind_tcp("127.0.0.1:0", fabric, None, daemon_config()).unwrap();
    let addr = daemon.local_addr().unwrap();

    // A healthy tenant on its own connection.
    let mut healthy = tcp_client(addr);
    healthy
        .call(&Request::Register(TenantSpec::frequency(1, 10)))
        .unwrap();

    // Stall: declare a 1 KiB frame, send 3 bytes, go quiet. The read
    // deadline (300 ms) must close the connection.
    let mut staller = TcpStream::connect(addr).unwrap();
    staller.write_all(&1024u32.to_be_bytes()).unwrap();
    staller.write_all(b"{\"P").unwrap();
    staller.flush().unwrap();
    staller
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 16];
    match staller.read(&mut buf) {
        Ok(0) => {}
        other => panic!("expected EOF from read deadline, got {other:?}"),
    }

    // Disconnect: another peer drops mid-frame without waiting.
    let mut quitter = TcpStream::connect(addr).unwrap();
    quitter.write_all(&2048u32.to_be_bytes()).unwrap();
    quitter.write_all(b"{\"In").unwrap();
    drop(quitter);

    // The healthy connection is untouched.
    std::thread::sleep(Duration::from_millis(50));
    assert!(matches!(
        healthy.call(&Request::Ping).unwrap(),
        Response::Pong
    ));
    drop(healthy);
    let report = daemon.shutdown().unwrap();
    assert!(report.connections >= 3);
}

/// Graceful shutdown drains: a request whose bytes are already on the
/// wire when shutdown begins still gets its response, the quiesce
/// seals every tenant's open interval, and the report says so.
#[test]
fn graceful_shutdown_drains_in_flight_frames_and_seals_intervals() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    fabric
        .register_tenant(TenantSpec::frequency(9, 99))
        .unwrap();
    let daemon = Daemon::bind_tcp("127.0.0.1:0", fabric, None, daemon_config()).unwrap();
    let addr = daemon.local_addr().unwrap();

    let mut stream_conn = TcpStream::connect(addr).unwrap();
    let req = Request::Ingest(IngestFrame {
        tenant: 9,
        updates: stream(9, 1_000),
    });
    write_frame(&mut stream_conn, &req).unwrap();
    stream_conn.flush().unwrap();
    // Give the connection thread time to see the bytes, then shut
    // down while the client has not yet read its response.
    std::thread::sleep(Duration::from_millis(50));
    let reader = std::thread::spawn(move || {
        stream_conn
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        read_frame::<_, Response>(&mut stream_conn, MAX_FRAME_BYTES)
    });
    let report = daemon.shutdown().unwrap();
    let drained = reader.join().unwrap().unwrap();
    assert!(
        matches!(drained, Some(Response::Admitted(_))),
        "in-flight ingest was not drained: {drained:?}"
    );
    assert_eq!(report.frames, 1);
    assert_eq!(report.sealed, vec![(9, 0)]); // interval 0 sealed at quiesce
                                             // The recovered fabric reflects the drained ingest.
    let mut fabric = report.fabric;
    match fabric.handle(Request::Stats(TenantRef { tenant: 9 })) {
        Response::Stats(s) => {
            assert_eq!(s.applied, 1_000);
            assert_eq!(s.interval, 1);
        }
        other => panic!("{other:?}"),
    }
}

/// The client-side [`IngestBatcher`] coalesces a live stream into
/// `max_batch`-sized ingest frames: every update lands (including the
/// partial tail at `finish`), backpressure is absorbed by the
/// flush-and-resend step, and the served sketch is bit-for-bit the
/// sketch of the same stream fed frame-per-chunk.
#[test]
fn ingest_batcher_ships_full_frames_and_absorbs_backpressure() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    let daemon = Daemon::bind_tcp("127.0.0.1:0", fabric, None, daemon_config()).unwrap();
    let addr = daemon.local_addr().unwrap();
    let mut client = tcp_client(addr);

    // A deliberately tight queue (1 000) under a 640-update batch:
    // a second in-flight batch overflows it, so the batcher must take
    // the Busy → Flush → resend path to get everything admitted.
    let spec = TenantSpec::frequency(8, 88).with_queue_capacity(1_000);
    match client.call(&Request::Register(spec)).unwrap() {
        Response::Installed(_) => {}
        other => panic!("{other:?}"),
    }
    let updates = stream(8, 10_000);
    let mut batcher = IngestBatcher::new(8, 640);
    let mut shipped = 0usize;
    for chunk in updates.chunks(97) {
        for resp in batcher.extend(&mut client, chunk).unwrap() {
            match resp {
                Response::Admitted(_) => shipped += 1,
                other => panic!("batch not admitted: {other:?}"),
            }
        }
    }
    match batcher.finish(&mut client).unwrap() {
        Some(Response::Admitted(_)) => shipped += 1,
        other => panic!("tail not admitted: {other:?}"),
    }
    assert_eq!(shipped, updates.len().div_ceil(640));
    assert_eq!(batcher.pending(), 0);
    client
        .call(&Request::Flush(TenantRef { tenant: 8 }))
        .unwrap();

    // Reference: the same stream frame-per-chunk into an in-process
    // fabric with an open queue.
    let mut reference = Fabric::new(config());
    reference.add_shard(0, 1.0).unwrap();
    reference
        .register_tenant(TenantSpec::frequency(8, 88))
        .unwrap();
    for chunk in updates.chunks(97) {
        reference.handle(Request::Ingest(IngestFrame {
            tenant: 8,
            updates: chunk.to_vec(),
        }));
    }
    reference.handle(Request::Flush(TenantRef { tenant: 8 }));
    for item in (0..N).step_by(89) {
        let wire = expect_value(
            client
                .call(&Request::Point(PointQuery { tenant: 8, item }))
                .unwrap(),
        );
        let local = expect_value(reference.handle(Request::Point(PointQuery { tenant: 8, item })));
        assert_eq!(wire.to_bits(), local.to_bits(), "item {item}");
    }
    drop(client);
    daemon.shutdown().unwrap();
}

/// A non-admitted frame leaves its updates buffered in the
/// [`IngestBatcher`]: a `Shed` answer hands the frame back intact, and
/// once the interval advances `finish` ships exactly those updates.
#[test]
fn ingest_batcher_keeps_unadmitted_updates_buffered() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    let daemon = Daemon::bind_tcp("127.0.0.1:0", fabric, None, daemon_config()).unwrap();
    let addr = daemon.local_addr().unwrap();
    let mut client = tcp_client(addr);
    let spec = TenantSpec::frequency(4, 44).with_interval_quota(1_000);
    match client.call(&Request::Register(spec)).unwrap() {
        Response::Installed(_) => {}
        other => panic!("{other:?}"),
    }
    let updates = stream(4, 1_300);
    let mut batcher = IngestBatcher::new(4, 640);
    // The second frame would take the interval to 1 280 > 1 000.
    let answers = batcher.extend(&mut client, &updates).unwrap();
    assert!(
        matches!(answers[..], [Response::Admitted(_), Response::Shed(_)]),
        "{answers:?}"
    );
    assert_eq!(batcher.pending(), 640);
    client
        .call(&Request::AdvanceInterval(TenantRef { tenant: 4 }))
        .unwrap();
    assert!(matches!(
        batcher.finish(&mut client).unwrap(),
        Some(Response::Admitted(_))
    ));
    assert_eq!(batcher.pending(), 0);
    client
        .call(&Request::Flush(TenantRef { tenant: 4 }))
        .unwrap();
    match client
        .call(&Request::Stats(TenantRef { tenant: 4 }))
        .unwrap()
    {
        Response::Stats(s) => {
            assert_eq!(s.applied, 1_280);
            let mass: f64 = updates[..1_280].iter().map(|&(_, d)| d).sum();
            assert_eq!(s.mass.to_bits(), mass.to_bits());
        }
        other => panic!("{other:?}"),
    }
    drop(client);
    daemon.shutdown().unwrap();
}

/// A binary ingest frame built by hand from the layout in the `wire`
/// module docs: `u32` BE length, tag `0x01`, tenant, then
/// `(item, delta bits)` pairs, all little-endian.
fn binary_ingest_frame(tenant: u64, updates: &[(u64, f64)]) -> Vec<u8> {
    let mut body = vec![0x01];
    body.extend_from_slice(&tenant.to_le_bytes());
    for &(item, delta) in updates {
        body.extend_from_slice(&item.to_le_bytes());
        body.extend_from_slice(&delta.to_bits().to_le_bytes());
    }
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&body);
    frame
}

/// Everything a tenant reports, as bits: stats, a grid of point
/// estimates, and (range-sum tenants) a grid of range sums.
fn observe(mut call: impl FnMut(Request) -> Response, tenant: u64) -> Vec<u64> {
    let mut out = match call(Request::Stats(TenantRef { tenant })) {
        Response::Stats(s) => vec![
            s.applied,
            s.mass.to_bits(),
            s.pending,
            s.admitted_in_interval,
            s.interval,
        ],
        other => panic!("expected stats, got {other:?}"),
    };
    for item in (0..N).step_by(97) {
        out.push(expect_value(call(Request::Point(PointQuery { tenant, item }))).to_bits());
        let range = RangeQuery {
            tenant,
            lo: item / 2,
            hi: item,
        };
        match call(Request::RangeSum(range)) {
            Response::Value(v) => out.push(v.value.to_bits()),
            Response::Error(e) => assert_eq!(e.code, "unsupported"),
            other => panic!("{other:?}"),
        }
    }
    out
}

/// Admission rejects, over a real socket, a binary ingest frame that
/// carries an item outside the universe or a `+inf` delta (which the
/// binary body delivers exactly; JSON would have turned it into NaN):
/// the answer is `bad_ingest`, and applied, pending and every answer —
/// before and after the next flush — match a twin fabric that never
/// saw the frame. Before admission checked the universe, the range-sum
/// tenant's flush panicked on `item = n`.
#[test]
fn out_of_universe_and_infinite_binary_frames_are_rejected_and_change_nothing() {
    let build = || {
        let mut fabric = Fabric::new(config());
        fabric.add_shard(0, 1.0).unwrap();
        fabric
            .register_tenant(TenantSpec::frequency(1, 11))
            .unwrap();
        fabric
            .register_tenant(TenantSpec::range_sum(2, 22))
            .unwrap();
        // One flushed frame per tenant, then one left pending.
        for tenant in [1u64, 2] {
            for (updates, flush) in [
                (stream(tenant, 500), true),
                (stream(tenant + 5, 200), false),
            ] {
                let resp = fabric.handle(Request::Ingest(IngestFrame { tenant, updates }));
                assert!(matches!(resp, Response::Admitted(_)), "{resp:?}");
                if flush {
                    fabric.handle(Request::Flush(TenantRef { tenant }));
                }
            }
        }
        fabric
    };
    let mut twin = build();
    let daemon = Daemon::bind_tcp("127.0.0.1:0", build(), None, daemon_config()).unwrap();
    let addr = daemon.local_addr().unwrap();
    let mut client = tcp_client(addr);
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    for tenant in [1u64, 2] {
        let before = observe(|r| client.call(&r).unwrap(), tenant);
        assert_eq!(before, observe(|r| twin.handle(r), tenant));
        for (bad, why) in [
            ((N, 1.0), "outside the universe"),
            ((u64::MAX, 1.0), "outside the universe"),
            ((3, f64::INFINITY), "non-finite delta inf"),
        ] {
            let mut updates = stream(tenant + 9, 50);
            updates[17] = bad;
            raw.write_all(&binary_ingest_frame(tenant, &updates))
                .unwrap();
            match read_frame::<_, Response>(&mut raw, MAX_FRAME_BYTES).unwrap() {
                Some(Response::Error(e)) => {
                    assert_eq!(e.code, "bad_ingest", "{bad:?}");
                    assert!(e.detail.contains(why), "{bad:?}: {}", e.detail);
                }
                other => panic!("tenant {tenant}, {bad:?}: {other:?}"),
            }
        }
        assert_eq!(observe(|r| client.call(&r).unwrap(), tenant), before);
        client.call(&Request::Flush(TenantRef { tenant })).unwrap();
        twin.handle(Request::Flush(TenantRef { tenant }));
        assert_eq!(
            observe(|r| client.call(&r).unwrap(), tenant),
            observe(|r| twin.handle(r), tenant)
        );
    }
    drop((client, raw));
    daemon.shutdown().unwrap();
}

/// Periodic compaction: with a record threshold configured, the
/// serving path itself rewrites the journal as a snapshot — the file
/// stays bounded while the daemon runs, and a copy taken mid-flight
/// (exactly what a crash would leave) recovers the full topology,
/// interval positions, and checkpointed counters.
#[test]
fn journal_compacts_at_the_record_threshold_while_serving() {
    let journal_path =
        std::env::temp_dir().join(format!("bas-daemon-compact-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal_path);
    let journal = Journal::open(&journal_path).unwrap();

    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    let daemon = Daemon::bind_tcp(
        "127.0.0.1:0",
        fabric,
        Some(journal),
        daemon_config().with_compact_after_records(Some(3)),
    )
    .unwrap();
    let addr = daemon.local_addr().unwrap();

    let mut client = tcp_client(addr);
    let spec = TenantSpec::frequency(6, 66);
    match client.call(&Request::Register(spec)).unwrap() {
        Response::Installed(_) => {}
        other => panic!("{other:?}"),
    }
    client
        .call(&Request::Ingest(IngestFrame {
            tenant: 6,
            updates: stream(6, 800),
        }))
        .unwrap();
    client
        .call(&Request::Flush(TenantRef { tenant: 6 }))
        .unwrap();
    let advances = 12u64;
    for _ in 0..advances {
        client
            .call(&Request::AdvanceInterval(TenantRef { tenant: 6 }))
            .unwrap();
    }

    // Without compaction the journal would hold 13 appended records;
    // the threshold keeps it at snapshot + a short tail.
    let on_disk = std::fs::read_to_string(&journal_path).unwrap();
    let lines = on_disk.lines().count();
    assert!(
        lines <= 5,
        "journal not compacted: {lines} lines on disk\n{on_disk}"
    );

    // A mid-flight copy (what kill -9 would leave) recovers tenant,
    // interval position, and the checkpointed counters bit-for-bit.
    let copy = journal_path.with_extension("copy.jsonl");
    std::fs::copy(&journal_path, &copy).unwrap();
    let mut recovered = recover(&copy, config()).unwrap();
    assert_eq!(recovered.tenant_spec(6), Some(spec));
    match recovered.handle(Request::Stats(TenantRef { tenant: 6 })) {
        Response::Stats(s) => {
            assert_eq!(s.interval, advances);
            assert_eq!(s.applied, 800);
        }
        other => panic!("{other:?}"),
    }
    for item in (0..N).step_by(173) {
        let live = expect_value(
            client
                .call(&Request::Point(PointQuery { tenant: 6, item }))
                .unwrap(),
        );
        let replayed =
            expect_value(recovered.handle(Request::Point(PointQuery { tenant: 6, item })));
        assert_eq!(live.to_bits(), replayed.to_bits(), "item {item}");
    }

    drop(client);
    daemon.shutdown().unwrap();
    std::fs::remove_file(&journal_path).ok();
    std::fs::remove_file(&copy).ok();
}

/// Tenant mix for the write-behind races: an unbounded frequency
/// tenant, an unbounded range-sum tenant, a sliding-window tenant and a
/// rotating tenant, so every engine shape runs through the writer.
fn race_specs() -> Vec<TenantSpec> {
    vec![
        TenantSpec::frequency(1, 11),
        TenantSpec::range_sum(2, 22),
        TenantSpec::frequency(3, 33).with_mode(ServingMode::Sliding(WindowLen { intervals: 3 })),
        TenantSpec::frequency(4, 44).with_mode(ServingMode::Rotating(WindowLen { intervals: 2 })),
    ]
}

/// The ingest side of a race: `rounds` frames per tenant, round robin,
/// each of a length that varies per frame.
fn race_frames(rounds: u64) -> Vec<(u64, Vec<(u64, f64)>)> {
    (0..rounds)
        .flat_map(|round| {
            race_specs().into_iter().map(move |spec| {
                let tenant = spec.tenant;
                let len = 200 + ((round * 37 + tenant * 11) % 300) as usize;
                (tenant, stream(tenant * 1_000 + round, len))
            })
        })
        .collect()
}

/// Streams `frames` over one connection; every frame must be admitted.
fn stream_frames(addr: std::net::SocketAddr, frames: &[(u64, Vec<(u64, f64)>)]) {
    let mut client = tcp_client(addr);
    for (tenant, updates) in frames {
        let resp = client
            .call(&Request::Ingest(IngestFrame {
                tenant: *tenant,
                updates: updates.clone(),
            }))
            .unwrap();
        assert!(matches!(resp, Response::Admitted(_)), "{resp:?}");
    }
}

/// Whether `applied` ends a frame of `tenant` in `frames`: answers must
/// come from flush-boundary prefixes of the admitted stream.
fn on_frame_boundary(frames: &[(u64, Vec<(u64, f64)>)], tenant: u64, applied: u64) -> bool {
    let mut sum = 0u64;
    applied == 0
        || frames
            .iter()
            .filter(|(t, _)| *t == tenant)
            .any(|(_, updates)| {
                sum += updates.len() as u64;
                sum == applied
            })
}

/// An in-process fabric with the race tenants, fed `frames` in order.
fn race_twin(frames: &[(u64, Vec<(u64, f64)>)]) -> Fabric {
    let mut twin = Fabric::new(config());
    twin.add_shard(0, 1.0).unwrap();
    for spec in race_specs() {
        twin.register_tenant(spec).unwrap();
    }
    for (tenant, updates) in frames {
        twin.handle(Request::Ingest(IngestFrame {
            tenant: *tenant,
            updates: updates.clone(),
        }));
    }
    twin
}

/// Write-behind under fire: one connection streams frames to four
/// tenants while another races `Point`, `WindowPoint`, `Stats`,
/// `Export` and `AdvanceInterval` (whose journal records trigger
/// threshold compactions, each of which exports every tenant) against
/// the writer. Every `Stats` and `Export` it sees sits on a frame
/// boundary, and for the never-advanced unbounded tenant
/// `applied + pending = admitted`. After a final `Flush` every tenant
/// answers bit for bit like an in-process twin fed the same frames, and
/// a copy of the journal taken mid-run recovers each checkpointed
/// tenant bit for bit as the twin of its checkpointed prefix.
#[test]
fn write_behind_races_keep_every_tenant_bit_for_bit() {
    let journal_path =
        std::env::temp_dir().join(format!("bas-daemon-race-{}.jsonl", std::process::id()));
    let copy = journal_path.with_extension("copy.jsonl");
    let _ = std::fs::remove_file(&journal_path);
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    let daemon = Daemon::bind_tcp(
        "127.0.0.1:0",
        fabric,
        Some(Journal::open(&journal_path).unwrap()),
        daemon_config().with_compact_after_records(Some(3)),
    )
    .unwrap();
    let addr = daemon.local_addr().unwrap();
    let mut client = tcp_client(addr);
    for spec in race_specs() {
        let resp = client.call(&Request::Register(spec)).unwrap();
        assert!(matches!(resp, Response::Installed(_)), "{resp:?}");
    }

    let frames = race_frames(60);
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let (frames, done) = (frames.clone(), done.clone());
        std::thread::spawn(move || {
            stream_frames(addr, &frames);
            done.store(true, std::sync::atomic::Ordering::Release);
        })
    };
    let mut advances = 0u64;
    let mut copied = false;
    let mut round = 0u64;
    while !done.load(std::sync::atomic::Ordering::Acquire) || round < 8 {
        let item = (round * 131) % N;
        for tenant in 1..=4u64 {
            match client.call(&Request::Stats(TenantRef { tenant })).unwrap() {
                Response::Stats(s) => {
                    assert!(on_frame_boundary(&frames, tenant, s.applied), "{s:?}");
                    if tenant == 1 {
                        assert_eq!(s.applied + s.pending, s.admitted_in_interval, "{s:?}");
                    }
                }
                other => panic!("{other:?}"),
            }
            expect_value(
                client
                    .call(&Request::Point(PointQuery { tenant, item }))
                    .unwrap(),
            );
        }
        expect_value(
            client
                .call(&Request::WindowPoint(PointQuery { tenant: 3, item }))
                .unwrap(),
        );
        match client
            .call(&Request::Export(TenantRef { tenant: 3 }))
            .unwrap()
        {
            Response::Exported(t) => assert!(on_frame_boundary(&frames, 3, t.applied)),
            other => panic!("{other:?}"),
        }
        let resp = client
            .call(&Request::AdvanceInterval(TenantRef { tenant: 2 }))
            .unwrap();
        assert!(matches!(resp, Response::Sealed(_)), "{resp:?}");
        advances += 1;
        if advances == 7 && !done.load(std::sync::atomic::Ordering::Acquire) {
            // Journaled requests come only from this connection, so
            // between calls the file is a finished compaction plus a
            // tail: exactly what a crash here would leave.
            std::fs::copy(&journal_path, &copy).unwrap();
            copied = true;
        }
        round += 1;
    }
    writer.join().unwrap();

    let mut twin = race_twin(&frames);
    for _ in 0..advances {
        twin.handle(Request::AdvanceInterval(TenantRef { tenant: 2 }));
    }
    for tenant in 1..=4u64 {
        for req in [
            Request::Flush(TenantRef { tenant }),
            Request::AdvanceInterval(TenantRef { tenant }),
        ] {
            assert_eq!(client.call(&req).unwrap(), twin.handle(req));
        }
        assert_eq!(
            observe(|r| client.call(&r).unwrap(), tenant),
            observe(|r| twin.handle(r), tenant),
            "tenant {tenant}"
        );
        let window = Request::WindowPoint(PointQuery { tenant, item: 5 });
        assert_eq!(client.call(&window).unwrap(), twin.handle(window));
    }

    if copied {
        let mut recovered = recover(&copy, config()).unwrap();
        for tenant in [1u64, 2, 3] {
            let applied = match recovered.handle(Request::Stats(TenantRef { tenant })) {
                Response::Stats(s) => s.applied,
                other => panic!("{other:?}"),
            };
            assert!(
                on_frame_boundary(&frames, tenant, applied),
                "tenant {tenant}"
            );
            // The twin of the checkpoint: the tenant's frames up to it.
            let mut left = applied;
            let prefix: Vec<_> = frames
                .iter()
                .filter(|(t, updates)| {
                    let take = *t == tenant && left > 0;
                    if take {
                        left -= updates.len() as u64;
                    }
                    take
                })
                .cloned()
                .collect();
            let mut twin = race_twin(&prefix);
            twin.handle(Request::Flush(TenantRef { tenant }));
            for item in (0..N).step_by(61) {
                let req = Request::Point(PointQuery { tenant, item });
                assert_eq!(
                    recovered.handle(req.clone()),
                    twin.handle(req),
                    "tenant {tenant}"
                );
            }
        }
        assert!(recovered.tenant_spec(4).is_some());
    }
    drop(client);
    let report = daemon.shutdown().unwrap();
    assert_eq!(report.journal_failures, 0);
    assert!(report.frames_applied <= frames.len() as u64);
    assert!(report.peak_queued > 0);
    std::fs::remove_file(&journal_path).ok();
    std::fs::remove_file(&copy).ok();
}

/// `Stats` never splits an in-flight frame: while one connection
/// streams frames to an unbounded tenant, every `Stats` read on another
/// satisfies `applied + pending = admitted`, with `applied` on a frame
/// boundary; and the writer applies the frames without any `Flush`.
#[test]
fn stats_reads_see_applied_plus_pending_equal_admitted() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    fabric
        .register_tenant(TenantSpec::frequency(1, 11))
        .unwrap();
    let daemon = Daemon::bind_tcp("127.0.0.1:0", fabric, None, daemon_config()).unwrap();
    let addr = daemon.local_addr().unwrap();
    let frames: Vec<_> = (0..200u64)
        .map(|i| (1u64, stream(i, 300 + (i as usize * 7) % 200)))
        .collect();
    let total: u64 = frames.iter().map(|(_, u)| u.len() as u64).sum();
    let writer = {
        let frames = frames.clone();
        std::thread::spawn(move || stream_frames(addr, &frames))
    };
    let mut client = tcp_client(addr);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let s = match client
            .call(&Request::Stats(TenantRef { tenant: 1 }))
            .unwrap()
        {
            Response::Stats(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(s.applied + s.pending, s.admitted_in_interval, "{s:?}");
        assert!(on_frame_boundary(&frames, 1, s.applied), "{s:?}");
        if s.applied == total {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the writer never applied everything: {s:?}"
        );
    }
    writer.join().unwrap();
    drop(client);
    let report = daemon.shutdown().unwrap();
    assert_eq!(report.frames_applied, frames.len() as u64);
    assert_eq!(report.journal_failures, 0);
}

/// An in-memory client stream served by [`serve_connection`] against an
/// in-process fabric: each `flush` answers the frames written so far,
/// counting the `Busy` answers among them.
struct InProcessStream {
    fabric: std::rc::Rc<std::cell::RefCell<Fabric>>,
    requests: Vec<u8>,
    responses: std::collections::VecDeque<u8>,
    busy: std::rc::Rc<std::cell::Cell<u64>>,
}

impl Write for InProcessStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.requests.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let mut out = Vec::new();
        serve_connection(
            &mut self.fabric.borrow_mut(),
            &mut &self.requests[..],
            &mut out,
            MAX_FRAME_BYTES,
        )
        .map_err(std::io::Error::other)?;
        self.requests.clear();
        let mut answers = &out[..];
        while let Some(resp) = read_frame::<_, Response>(&mut answers, MAX_FRAME_BYTES).unwrap() {
            if matches!(resp, Response::Busy(_)) {
                self.busy.set(self.busy.get() + 1);
            }
        }
        self.responses.extend(out);
        Ok(())
    }
}

impl Read for InProcessStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.responses.read(buf)
    }
}

/// The [`IngestBatcher`]'s `Busy → Flush → resend` path, driven
/// deterministically: over `serve_connection` against an in-process
/// fabric (which has no writer, so admitted frames stay queued until a
/// flush), a 1 000-update queue under 640-update batches answers `Busy`
/// to every second batch. The batcher absorbs each one, every update
/// lands, and the sketch is bit for bit the same stream fed through an
/// open queue.
#[test]
fn ingest_batcher_absorbs_busy_by_flushing_and_resending() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    fabric
        .register_tenant(TenantSpec::frequency(8, 88).with_queue_capacity(1_000))
        .unwrap();
    let fabric = std::rc::Rc::new(std::cell::RefCell::new(fabric));
    let busy = std::rc::Rc::new(std::cell::Cell::new(0u64));
    let mut client = {
        let (fabric, busy) = (fabric.clone(), busy.clone());
        Client::new(
            move || {
                Ok(InProcessStream {
                    fabric: fabric.clone(),
                    requests: Vec::new(),
                    responses: std::collections::VecDeque::new(),
                    busy: busy.clone(),
                })
            },
            RetryPolicy::new(),
            MAX_FRAME_BYTES,
        )
    };
    let updates = stream(8, 10_000);
    let mut batcher = IngestBatcher::new(8, 640);
    for chunk in updates.chunks(97) {
        for resp in batcher.extend(&mut client, chunk).unwrap() {
            assert!(matches!(resp, Response::Admitted(_)), "{resp:?}");
        }
    }
    let tail = batcher.finish(&mut client).unwrap();
    assert!(matches!(tail, Some(Response::Admitted(_))), "{tail:?}");
    assert!(busy.get() >= 1, "no Busy was absorbed");
    assert_eq!(batcher.pending(), 0);

    let mut reference = Fabric::new(config());
    reference.add_shard(0, 1.0).unwrap();
    reference
        .register_tenant(TenantSpec::frequency(8, 88))
        .unwrap();
    reference.handle(Request::Ingest(IngestFrame {
        tenant: 8,
        updates: updates.clone(),
    }));
    let mut fabric = fabric.borrow_mut();
    for f in [&mut *fabric, &mut reference] {
        f.handle(Request::Flush(TenantRef { tenant: 8 }));
    }
    assert_eq!(
        observe(|r| fabric.handle(r), 8),
        observe(|r| reference.handle(r), 8)
    );
}
