//! A scenario two suites run, each with its own way of rebuilding an
//! engine (`upgrade_transparency`: the upgrade factory; `fault_recovery`:
//! a supervisor restart).

use snap_repro::pony::client::{OpStatus, PonyCommand, PonyCompletion};
use snap_repro::testbed::{Testbed, TestbedConfig};

/// Three hosts; `b` (host 1) dials `c` (host 2) and then `a` (host 0),
/// and traffic runs both ways so `b`'s engine holds its own two flows
/// and both peers' flows. `rebuild` then replaces `b`'s engine with one
/// restored from its checkpoint, and a *new* `b`→`a` connection carries
/// one message: it must reach `a` once on that connection, `c` must see
/// nothing, and `b` must see its send complete `Ok` once.
pub fn new_connection_after_rebuild_reaches_its_peer(rebuild: impl FnOnce(&mut Testbed)) {
    let mut tb = Testbed::new(TestbedConfig {
        hosts: 3,
        ..TestbedConfig::default()
    });
    let mut a = tb.pony_app(0, "a", |_| {});
    let mut b = tb.pony_app(1, "b", |_| {});
    let mut c = tb.pony_app(2, "c", |_| {});
    let to_c = tb.connect(1, "b", 2, "c");
    let to_a = tb.connect(1, "b", 0, "a");
    let send = |conn| PonyCommand::Send {
        conn,
        stream: 0,
        len: 700,
    };
    b.submit(&mut tb.sim, send(to_c));
    b.submit(&mut tb.sim, send(to_a));
    c.submit(&mut tb.sim, send(to_c));
    a.submit(&mut tb.sim, send(to_a));
    tb.run_ms(5);
    for (client, expected) in [(&mut a, 1), (&mut b, 2), (&mut c, 1)] {
        let got = client.take_completions();
        let msgs = got
            .iter()
            .filter(|c| matches!(c, PonyCompletion::RecvMsg { .. }))
            .count();
        assert_eq!(msgs, expected, "messages before the rebuild: {got:?}");
    }

    rebuild(&mut tb);

    let fresh = tb.connect(1, "b", 0, "a");
    let op = b.submit(&mut tb.sim, send(fresh));
    tb.run_ms(50);
    assert_eq!(
        a.take_completions(),
        vec![PonyCompletion::RecvMsg {
            conn: fresh,
            stream: 0,
            msg: 0,
            len: 700
        }],
        "the message reaches a, once, on the new connection"
    );
    assert_eq!(
        c.take_completions(),
        vec![],
        "c is not this connection's peer"
    );
    let done = b.take_completions();
    assert!(
        matches!(done[..], [PonyCompletion::OpDone { op: o, status: OpStatus::Ok, .. }] if o == op),
        "b sees its send complete once: {done:?}"
    );
}
