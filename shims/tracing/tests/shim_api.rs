//! API-surface tests for the tracing shim: dispatch, the thread-local span
//! stack, field capture, and the disabled fast path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use tracing::field::Value;
use tracing::subscriber::{replace_global_default, set_global_default, with_default};
use tracing::{event, span, Attributes, Event, Id, Level, Subscriber};

/// Records every call it sees, allocating sequential span ids.
#[derive(Default)]
struct Recorder {
    next: AtomicU64,
    log: Mutex<Vec<String>>,
}

impl Recorder {
    fn lines(&self) -> Vec<String> {
        self.log.lock().unwrap().clone()
    }
    fn push(&self, line: String) {
        self.log.lock().unwrap().push(line);
    }
}

impl Subscriber for Recorder {
    fn new_span(&self, attrs: &Attributes<'_>) -> Id {
        // RELAXED: test-local id allocator, no ordering needed.
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        let fields: Vec<String> = attrs
            .fields
            .iter()
            .map(|(k, v)| format!("{k}={}", v.to_json()))
            .collect();
        self.push(format!(
            "new {} id={id} parent={:?} [{}]",
            attrs.metadata.name,
            attrs.parent.map(Id::into_u64),
            fields.join(",")
        ));
        Id::from_u64(id)
    }
    fn enter(&self, id: Id) {
        self.push(format!("enter {}", id.into_u64()));
    }
    fn exit(&self, id: Id) {
        self.push(format!("exit {}", id.into_u64()));
    }
    fn event(&self, event: &Event<'_>) {
        let fields: Vec<String> = event
            .fields
            .iter()
            .map(|(k, v)| format!("{k}={}", v.to_json()))
            .collect();
        self.push(format!(
            "event {} parent={:?} [{}]",
            event.metadata.name,
            event.parent.map(Id::into_u64),
            fields.join(",")
        ));
    }
}

/// The shim's enabled gate is one process-wide counter — the global default
/// plus every live `with_default` scope on *any* thread — so a test that
/// asserts the disabled path, or owns the global slot, must not overlap a
/// test that installs anything. Every such test holds this lock.
static DISPATCH: Mutex<()> = Mutex::new(());

fn dispatch_lock() -> MutexGuard<'static, ()> {
    // A panicking holder must fail alone, not poison its neighbours.
    DISPATCH.lock().unwrap_or_else(|e| e.into_inner())
}

/// With no subscriber installed anywhere, spans and events are inert and
/// their field expressions do not even run. Call with [`DISPATCH`] held.
fn assert_disabled_path_is_inert() {
    let evaluated = std::cell::Cell::new(false);
    let observe = || {
        evaluated.set(true);
        7u64
    };
    let s = span!(Level::INFO, "quiet", cost = observe());
    assert!(s.id().is_none());
    let _g = s.enter();
    event!(Level::INFO, "quiet_event", cost = observe());
    assert!(!evaluated.get(), "disabled telemetry evaluated its fields");
}

#[test]
fn disabled_spans_and_events_are_inert_and_do_not_evaluate_fields() {
    let _serial = dispatch_lock();
    assert_disabled_path_is_inert();
}

#[test]
fn with_default_records_nesting_and_fields() {
    let _serial = dispatch_lock();
    let rec = Arc::new(Recorder::default());
    let rec2 = rec.clone();
    struct Fwd(Arc<Recorder>);
    impl Subscriber for Fwd {
        fn new_span(&self, a: &Attributes<'_>) -> Id {
            self.0.new_span(a)
        }
        fn enter(&self, id: Id) {
            self.0.enter(id)
        }
        fn exit(&self, id: Id) {
            self.0.exit(id)
        }
        fn event(&self, e: &Event<'_>) {
            self.0.event(e)
        }
    }
    with_default(Fwd(rec2), || {
        let outer = span!(Level::INFO, "outer", k = 8usize);
        let og = outer.enter();
        let inner = span!(Level::DEBUG, "inner", tag = "fast");
        let ig = inner.enter();
        event!(Level::TRACE, "probe", hops = 3u32, ratio = 0.5f64);
        drop(ig);
        drop(og);
    });
    let lines = rec.lines();
    assert_eq!(
        lines,
        vec![
            "new outer id=1 parent=None [k=8]",
            "enter 1",
            "new inner id=2 parent=Some(1) [tag=\"fast\"]",
            "enter 2",
            "event probe parent=Some(2) [hops=3,ratio=0.5]",
            "exit 2",
            "exit 1",
        ]
    );
}

#[test]
fn explicit_parent_overrides_the_contextual_stack() {
    let _serial = dispatch_lock();
    let rec = Arc::new(Recorder::default());
    struct Fwd(Arc<Recorder>);
    impl Subscriber for Fwd {
        fn new_span(&self, a: &Attributes<'_>) -> Id {
            self.0.new_span(a)
        }
        fn enter(&self, id: Id) {
            self.0.enter(id)
        }
        fn exit(&self, id: Id) {
            self.0.exit(id)
        }
        fn event(&self, e: &Event<'_>) {
            self.0.event(e)
        }
    }
    with_default(Fwd(rec.clone()), || {
        let a = span!(Level::INFO, "a");
        let b = span!(Level::INFO, "b");
        let _bg = b.enter();
        // Created while inside `b`, but pinned to `a` — the pool fan-out
        // shape where the worker thread's own stack is unrelated.
        let child = span!(parent: a, Level::INFO, "child");
        let _cg = child.enter();
    });
    let lines = rec.lines();
    assert!(lines
        .iter()
        .any(|l| l == "new child id=3 parent=Some(1) []"));
}

#[test]
fn global_default_set_replace_and_clear() {
    // One test owns the global slot (others use with_default).
    let _serial = dispatch_lock();
    let rec = Arc::new(Recorder::default());
    struct Fwd(Arc<Recorder>);
    impl Subscriber for Fwd {
        fn new_span(&self, a: &Attributes<'_>) -> Id {
            self.0.new_span(a)
        }
        fn enter(&self, id: Id) {
            self.0.enter(id)
        }
        fn exit(&self, id: Id) {
            self.0.exit(id)
        }
        fn event(&self, e: &Event<'_>) {
            self.0.event(e)
        }
    }
    set_global_default(Fwd(rec.clone())).expect("first install succeeds");
    assert!(
        set_global_default(Fwd(rec.clone())).is_err(),
        "second set_global_default must fail like upstream"
    );
    // Spans on a fresh thread see the global default.
    std::thread::spawn(|| {
        let s = span!(Level::INFO, "cross_thread");
        let _g = s.enter();
    })
    .join()
    .unwrap();
    assert!(rec.lines().iter().any(|l| l.contains("new cross_thread")));

    let prev = replace_global_default(None);
    assert!(prev.is_some());
    // Cleared means disabled again, not merely "no subscriber found".
    assert_disabled_path_is_inert();
}

#[test]
fn value_json_rendering_escapes_and_numbers() {
    assert_eq!(Value::from(3usize).to_json(), "3");
    assert_eq!(Value::from(-4i64).to_json(), "-4");
    assert_eq!(Value::from(true).to_json(), "true");
    assert_eq!(Value::from("a\"b\\c").to_json(), "\"a\\\"b\\\\c\"");
    assert_eq!(Value::from(1.5f64).to_json(), "1.5");
    assert_eq!(Value::from(f64::NAN).to_json(), "\"NaN\"");
    assert_eq!(
        Value::from(u128::from(u64::MAX) + 10).to_json(),
        u64::MAX.to_string()
    );
}
