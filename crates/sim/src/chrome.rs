//! Chrome trace-event export: open simulation runs in `chrome://tracing`
//! or [Perfetto](https://ui.perfetto.dev).
//!
//! Core busy spans become complete ("X") events on one track per CPU,
//! and flag sets become instant ("i") events — so a whole boot can be
//! inspected interactively: which services held which cores when, where
//! the RCU storms are, and what gated the critical chain.

use crate::machine::Machine;
use crate::trace::TraceKind;

/// Minimal JSON string escaping (names are ASCII identifiers, but unit
/// descriptions could surprise us).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine's trace in Chrome trace-event JSON array format.
///
/// Load the output in `chrome://tracing` or Perfetto. Span recording
/// must be enabled on the machine: it is on a [`Machine::new`] machine,
/// and a boot run through bb-core records spans only when its request
/// has telemetry on.
pub fn chrome_trace(machine: &Machine) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    let push = |s: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&s);
    };

    // Core busy spans: pid 1 = "machine", tid = core index.
    for span in machine.trace().spans() {
        let name = escape(&machine.process(span.pid).name);
        let ts = span.start.as_nanos() as f64 / 1000.0;
        let dur = span.end.saturating_since(span.start).as_nanos() as f64 / 1000.0;
        push(
            format!(
                r#"  {{"name":"{name}","cat":"cpu","ph":"X","ts":{ts:.3},"dur":{dur:.3},"pid":1,"tid":{}}}"#,
                span.core.as_raw()
            ),
            &mut out,
            &mut first,
        );
    }
    // Flag sets as instant events on a dedicated track.
    for e in machine.trace().events() {
        if let TraceKind::FlagSet { flag } = e.kind {
            let name = escape(machine.flag_name(flag));
            let ts = e.time.as_nanos() as f64 / 1000.0;
            push(
                format!(
                    r#"  {{"name":"{name}","cat":"flag","ph":"i","ts":{ts:.3},"pid":1,"tid":999,"s":"g"}}"#
                ),
                &mut out,
                &mut first,
            );
        }
    }
    // Track names.
    for core in 0..machine.config().cores {
        push(
            format!(
                r#"  {{"name":"thread_name","ph":"M","pid":1,"tid":{core},"args":{{"name":"cpu{core}"}}}}"#
            ),
            &mut out,
            &mut first,
        );
    }
    push(
        r#"  {"name":"thread_name","ph":"M","pid":1,"tid":999,"args":{"name":"flags"}}"#.to_owned(),
        &mut out,
        &mut first,
    );
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::process::{OpsBuilder, ProcessSpec};

    #[test]
    fn trace_is_valid_json_shaped_and_complete() {
        let mut m = Machine::new(MachineConfig {
            cores: 2,
            ..MachineConfig::default()
        });
        let f = m.flag("the-flag");
        m.spawn(ProcessSpec::new(
            "svc \"quoted\"",
            OpsBuilder::new().compute_ms(2).set_flag(f).build(),
        ));
        m.run();
        let json = chrome_trace(&m);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with("]"));
        // Escaped name present, flag instant present, track metadata.
        assert!(json.contains(r#"svc \"quoted\""#));
        assert!(json.contains(r#""cat":"flag""#));
        assert!(json.contains(r#""name":"the-flag""#));
        assert!(json.contains(r#""name":"cpu1""#));
        // Balanced braces (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn escape_handles_control_chars() {
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb"), "a\\nb");
        assert_eq!(escape("a\u{1}b"), "a\\u0001b");
    }
}
