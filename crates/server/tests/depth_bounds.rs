//! Client input nested past the server's fixed depth bounds is answered
//! with a structured `invalid` error instead of overflowing the stack, and
//! the server keeps answering. Each oversized input below aborted the
//! process on a 2 MiB worker stack before the bounds existed; the test
//! runs on a stack of that size.

use dbwipes_data::{generate_sensor, SensorConfig};
use dbwipes_engine::MAX_EXPR_DEPTH;
use dbwipes_server::{Json, SessionManager};
use dbwipes_storage::Catalog;

fn manager() -> SessionManager {
    let data = generate_sensor(&SensorConfig {
        num_readings: 1_350,
        failing_sensors: vec![15],
        ..SensorConfig::small()
    });
    let mut catalog = Catalog::new();
    catalog.register(data.table).unwrap();
    SessionManager::new(catalog)
}

fn send(manager: &SessionManager, line: &str) -> Json {
    Json::parse(&manager.handle_line(line)).expect("replies are valid JSON")
}

/// Asserts a structured, non-retryable `invalid` error reply.
fn assert_invalid(reply: &Json) {
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply}");
    let error = reply.get("error").expect("error object");
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("invalid"), "{reply}");
    assert_eq!(error.get("retryable"), Some(&Json::Bool(false)), "{reply}");
}

fn run_query(session: u64, where_clause: &str) -> String {
    let sql =
        format!("SELECT window, avg(temp) FROM readings WHERE {where_clause} GROUP BY window");
    Json::obj(vec![
        ("cmd", Json::str("run_query")),
        ("session", Json::num(session as f64)),
        ("sql", Json::str(sql)),
    ])
    .to_string()
}

#[test]
fn oversized_nesting_is_refused_and_the_next_command_is_answered() {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let m = manager();
            let ok = |line: &str| {
                let reply = send(&m, line);
                assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{line} -> {reply}");
                reply
            };

            // A JSON line of 50,000 nested arrays.
            let brackets = format!("{}{}", "[".repeat(50_000), "]".repeat(50_000));
            assert_invalid(&send(&m, &brackets));
            ok(r#"{"cmd":"ping"}"#);

            let s = ok(r#"{"cmd":"open_session"}"#).get("session").and_then(Json::as_u64).unwrap();
            // A WHERE clause nested in 100,000 parentheses.
            let parens = format!("{}temp > 1{}", "(".repeat(100_000), ")".repeat(100_000));
            assert_invalid(&send(&m, &run_query(s, &parens)));
            // A flat WHERE of 10,000 conjuncts (~130 KB).
            let chain = |n: usize| format!("{}temp > 1", "temp > 1 AND ".repeat(n - 1));
            let line = run_query(s, &chain(10_000));
            assert!(line.len() > 100_000 && line.len() < 1 << 20, "{}", line.len());
            assert_invalid(&send(&m, &line));

            // The session still serves, up to a clause exactly at the bound:
            // 127 comparisons (two levels each) joined by 126 ANDs.
            ok(&run_query(s, &chain(MAX_EXPR_DEPTH - 1)));
            assert_invalid(&send(&m, &run_query(s, &chain(MAX_EXPR_DEPTH))));
            let reply = ok(&format!(r#"{{"cmd":"state","session":{s}}}"#));
            assert_eq!(reply.get("state").and_then(Json::as_str), Some("ResultsShown"), "{reply}");
            // The SQL the session displays for it can be submitted again.
            let shown = reply.get("sql").and_then(Json::as_str).unwrap().to_string();
            let resubmit = Json::obj(vec![
                ("cmd", Json::str("run_query")),
                ("session", Json::num(s as f64)),
                ("sql", Json::str(shown)),
            ]);
            ok(&resubmit.to_string());
            ok(r#"{"cmd":"ping"}"#);
        })
        .unwrap()
        .join()
        .expect("the server must not overflow a worker stack");
}

#[test]
fn a_click_past_the_bound_is_refused_and_the_session_keeps_serving() {
    let m = manager();
    let ok = |line: &str| {
        let reply = send(&m, line);
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{line} -> {reply}");
        reply
    };
    let s = ok(r#"{"cmd":"open_session"}"#).get("session").and_then(Json::as_u64).unwrap();
    // A query exactly at the depth bound: any click nests it one deeper.
    let chain = format!("{}temp > 1", "temp > 1 AND ".repeat(MAX_EXPR_DEPTH - 2));
    let sql = format!(
        "SELECT window, avg(temp) AS avg_temp, stddev(temp) AS std_temp FROM readings \
         WHERE {chain} GROUP BY window"
    );
    let run = Json::obj(vec![
        ("cmd", Json::str("run_query")),
        ("session", Json::num(s as f64)),
        ("sql", Json::str(sql.clone())),
    ]);
    ok(&run.to_string());
    ok(&format!(
        r#"{{"cmd":"brush_outputs","session":{s},"x":"window","y":"std_temp","brush":{{"y_min":0}}}}"#
    ));
    ok(&format!(
        r#"{{"cmd":"set_metric","session":{s},"kind":"too_high","column":"std_temp","value":4}}"#
    ));
    ok(&format!(r#"{{"cmd":"debug","session":{s}}}"#));
    assert_invalid(&send(&m, &format!(r#"{{"cmd":"click_predicate","session":{s},"index":0}}"#)));
    ok(r#"{"cmd":"ping"}"#);
    // The refused click applied nothing.
    let state = ok(&format!(r#"{{"cmd":"state","session":{s}}}"#));
    assert_eq!(state.get("applied_predicates"), Some(&Json::Arr(Vec::new())), "{state}");
}
