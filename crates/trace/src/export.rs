//! Exporters: Chrome trace-event JSON and line-delimited JSONL, plus
//! [`TraceTree::from_jsonl`], which reads the JSONL back through the
//! workspace's one JSON reader ([`hlsb_findings::Json`]).
//!
//! The workspace builds offline, so there is no serde: serialization is
//! string concatenation with a fixed key order. Floats are printed with
//! Rust's `{:?}` (shortest round-trip), which makes
//! `export → parse → re-export` byte-identical.

use hlsb_findings::{json_escape, Json, Object};

use crate::span::{Attr, DecisionEvent, SpanNode};
use crate::tree::TraceTree;
use crate::value::{fmt_f64, Value};

// ---------------------------------------------------------------------------
// Chrome trace-event JSON
// ---------------------------------------------------------------------------

/// Renders one or more labelled runs as a Chrome trace-event JSON object
/// (`{"displayTimeUnit":"ms","traceEvents":[...]}`), loadable in Perfetto
/// or `chrome://tracing`.
///
/// Each `(label, tree)` pair becomes one process (`pid` = index) named
/// after the label. Spans are complete (`ph:"X"`) events; decision events
/// are thread-scoped instants (`ph:"i"`). Track 0 is the main flow lane;
/// placement trials sit on tracks `idx + 1` and are named `trial-idx`.
pub fn chrome_trace(runs: &[(&str, &TraceTree)]) -> String {
    let mut events: Vec<String> = Vec::new();
    for (pid, (label, tree)) in runs.iter().enumerate() {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(label)
        ));
        let mut tracks: Vec<u32> = tree.spans.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for track in tracks {
            let name = if track == 0 {
                "flow".to_string()
            } else {
                format!("trial-{}", track - 1)
            };
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{track},\
                 \"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}}"
            ));
        }
        for span in &tree.spans {
            let args: Vec<String> = span
                .attrs
                .iter()
                .map(|a| format!("\"{}\":{}", json_escape(&a.key), a.value.to_json()))
                .collect();
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"name\":\"{}\",\"args\":{{{}}}}}",
                span.track,
                fmt_f64(span.start_us),
                fmt_f64(span.dur_us),
                json_escape(&span.name),
                args.join(",")
            ));
            for event in &span.events {
                let args: Vec<String> = event
                    .attrs
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", json_escape(k), v.to_json()))
                    .collect();
                events.push(format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{},\"ts\":{},\
                     \"name\":\"{}\",\"args\":{{{}}}}}",
                    span.track,
                    fmt_f64(event.ts_us),
                    json_escape(&event.name),
                    args.join(",")
                ));
            }
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

// ---------------------------------------------------------------------------
// JSONL
// ---------------------------------------------------------------------------

fn attr_json(a: &Attr) -> String {
    format!(
        "[\"{}\",{},{}]",
        json_escape(&a.key),
        a.value.to_json(),
        a.volatile
    )
}

fn event_json(e: &DecisionEvent) -> String {
    let attrs: Vec<String> = e
        .attrs
        .iter()
        .map(|(k, v)| format!("[\"{}\",{}]", json_escape(k), v.to_json()))
        .collect();
    format!(
        "{{\"name\":\"{}\",\"ts_us\":{},\"attrs\":[{}]}}",
        json_escape(&e.name),
        fmt_f64(e.ts_us),
        attrs.join(",")
    )
}

impl TraceTree {
    /// Serializes the tree as line-delimited JSON: one `span` record per
    /// span (creation order), then one `counter` record per counter and
    /// one `histogram` record per histogram (name order). The encoding
    /// round-trips losslessly: `from_jsonl(to_jsonl())` reproduces the
    /// tree exactly, and re-exporting yields byte-identical output.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let attrs: Vec<String> = span.attrs.iter().map(attr_json).collect();
            let events: Vec<String> = span.events.iter().map(event_json).collect();
            let parent = match span.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"type\":\"span\",\"id\":{},\"parent\":{parent},\
                 \"name\":\"{}\",\"track\":{},\"start_us\":{},\"dur_us\":{},\
                 \"attrs\":[{}],\"events\":[{}]}}\n",
                span.id,
                json_escape(&span.name),
                span.track,
                fmt_f64(span.start_us),
                fmt_f64(span.dur_us),
                attrs.join(","),
                events.join(",")
            ));
        }
        for (name, v) in &self.metrics.counters {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{v}}}\n",
                json_escape(name)
            ));
        }
        for (name, h) in &self.metrics.histograms {
            let bounds: Vec<String> = h.bounds.iter().map(|b| fmt_f64(*b)).collect();
            let counts: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
            // min/max only exist once something was observed; empty
            // histograms omit them (and the parser restores the empty
            // sentinels), keeping the round trip byte-identical.
            let extremes = if h.total > 0 {
                format!(",\"min\":{},\"max\":{}", fmt_f64(h.min), fmt_f64(h.max))
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"bounds\":[{}],\
                 \"counts\":[{}],\"total\":{},\"sum\":{}{}}}\n",
                json_escape(name),
                bounds.join(","),
                counts.join(","),
                h.total,
                fmt_f64(h.sum),
                extremes
            ));
        }
        out
    }

    /// Parses a tree previously written by [`TraceTree::to_jsonl`].
    pub fn from_jsonl(text: &str) -> Result<TraceTree, String> {
        let mut tree = TraceTree::default();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let res = Object::parse(line).and_then(|obj| match obj.str("type")? {
                "span" => parse_span(&obj).map(|s| tree.spans.push(s)),
                "counter" => parse_counter(&obj).map(|(name, v)| {
                    tree.metrics.counters.insert(name, v);
                }),
                "histogram" => parse_histogram(&obj).map(|(name, h)| {
                    tree.metrics.histograms.insert(name, h);
                }),
                other => Err(format!("unknown record type {other:?}")),
            });
            res.map_err(|e| format!("line {}: {e}", lineno + 1))?;
        }
        for (i, span) in tree.spans.iter().enumerate() {
            if span.id as usize != i {
                return Err(format!(
                    "span records out of order: id {} at position {i}",
                    span.id
                ));
            }
        }
        Ok(tree)
    }
}

fn parse_span(obj: &Object) -> Result<SpanNode, String> {
    Ok(SpanNode {
        id: parse_u32(obj, "id")?,
        parent: match obj.get("parent") {
            Some(Json::Null) | None => None,
            Some(_) => Some(parse_u32(obj, "parent")?),
        },
        name: obj.str("name")?.to_string(),
        track: parse_u32(obj, "track")?,
        start_us: obj.f64("start_us")?,
        dur_us: obj.f64("dur_us")?,
        attrs: obj
            .arr("attrs")?
            .iter()
            .map(parse_attr)
            .collect::<Result<_, _>>()?,
        events: obj
            .arr("events")?
            .iter()
            .map(parse_event)
            .collect::<Result<_, _>>()?,
    })
}

fn parse_u32(obj: &Object, key: &str) -> Result<u32, String> {
    u32::try_from(obj.u64(key)?).map_err(|_| format!("`{key}` out of range"))
}

fn parse_attr(json: &Json) -> Result<Attr, String> {
    match json.as_arr() {
        Some([key, value, Json::Bool(volatile)]) => Ok(Attr {
            key: key.as_str().ok_or("attr key must be a string")?.to_string(),
            value: to_value(value)?,
            volatile: *volatile,
        }),
        _ => Err("attr must be [key, value, volatile]".into()),
    }
}

fn parse_event(json: &Json) -> Result<DecisionEvent, String> {
    let obj = json.as_obj().ok_or("event must be an object")?;
    Ok(DecisionEvent {
        name: obj.str("name")?.to_string(),
        ts_us: obj.f64("ts_us")?,
        attrs: obj
            .arr("attrs")?
            .iter()
            .map(|pair| match pair.as_arr() {
                Some([Json::Str(key), value]) => Ok((key.clone(), to_value(value)?)),
                _ => Err("event attr must be [key, value]".to_string()),
            })
            .collect::<Result<_, _>>()?,
    })
}

fn parse_counter(obj: &Object) -> Result<(String, u64), String> {
    Ok((obj.str("name")?.to_string(), obj.u64("value")?))
}

fn parse_histogram(obj: &Object) -> Result<(String, crate::Histogram), String> {
    let bounds = obj
        .arr("bounds")?
        .iter()
        .map(|j| j.as_f64().ok_or("bound must be a number"))
        .collect::<Result<Vec<f64>, _>>()?;
    let counts = obj
        .arr("counts")?
        .iter()
        .map(|j| j.as_u64().ok_or("count must be an unsigned integer"))
        .collect::<Result<Vec<u64>, _>>()?;
    // min/max are absent for empty histograms (and in trees written
    // before they were tracked): fall back to the empty sentinels.
    Ok((
        obj.str("name")?.to_string(),
        crate::Histogram {
            bounds,
            counts,
            total: obj.u64("total")?,
            sum: obj.f64("sum")?,
            min: obj.opt_f64("min")?.unwrap_or(f64::INFINITY),
            max: obj.opt_f64("max")?.unwrap_or(f64::NEG_INFINITY),
        },
    ))
}

fn to_value(json: &Json) -> Result<Value, String> {
    match json {
        Json::Str(s) => Ok(Value::Str(s.clone())),
        Json::U64(v) => Ok(Value::U64(*v)),
        Json::F64(v) => Ok(Value::F64(*v)),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        _ => Err("attribute values must be scalar".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    fn sample() -> TraceTree {
        let tracer = Tracer::enabled();
        let root = tracer.root("flow");
        root.attr("design", "genome \"g\"");
        root.attr_volatile("cache-hits", 2u64);
        {
            let sched = root.child("schedule");
            sched.attr("clock-ns", 3.0030030030030037);
            sched.event(
                "schedule.split",
                vec![("cut", Value::U64(5)), ("excess-ns", Value::F64(0.125))],
            );
        }
        {
            let trial = root.child("trial-0");
            trial.set_track(1);
            trial.set_window(100.5, 42.25);
        }
        tracer.count("decisions.schedule.split", 1);
        tracer.observe("slack-ns", &[0.0, 0.5, 1.0], 0.25);
        root.finish();
        tracer.take_tree()
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let tree = sample();
        let text = tree.to_jsonl();
        let parsed = TraceTree::from_jsonl(&text).unwrap();
        // Full equality — timestamps and volatile flags included.
        assert_eq!(parsed, tree);
        // Re-export is byte-identical.
        assert_eq!(parsed.to_jsonl(), text);
    }

    #[test]
    fn jsonl_rejects_malformed_input() {
        assert!(TraceTree::from_jsonl("{\"type\":\"span\"").is_err());
        assert!(TraceTree::from_jsonl("{\"type\":\"mystery\"}").is_err());
        assert!(TraceTree::from_jsonl(
            "{\"type\":\"span\",\"id\":4,\"parent\":null,\"name\":\"x\",\
             \"track\":0,\"start_us\":0.0,\"dur_us\":0.0,\"attrs\":[],\"events\":[]}"
        )
        .is_err());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_shapes() {
        let tree = sample();
        let text = chrome_trace(&[("genome+all", &tree)]);
        let obj = Object::parse(&text).unwrap();
        assert_eq!(obj.str("displayTimeUnit"), Ok("ms"));
        let events: Vec<&Object> = obj
            .arr("traceEvents")
            .unwrap()
            .iter()
            .map(|e| e.as_obj().unwrap())
            .collect();
        let ph = |e: &Object| e.str("ph").unwrap().to_string();
        assert!(events.iter().any(|e| ph(e) == "M"));
        assert_eq!(events.iter().filter(|e| ph(e) == "X").count(), 3);
        assert_eq!(events.iter().filter(|e| ph(e) == "i").count(), 1);
        // The trial span sits on its own track.
        let trial = events
            .iter()
            .find(|e| e.str("name") == Ok("trial-0") && ph(e) == "X")
            .unwrap();
        assert_eq!(trial.u64("tid"), Ok(1));
    }

    #[test]
    fn golden_jsonl_parses_and_re_renders_identically() {
        // Written by the exporter before the reader moved to
        // `hlsb-findings`: a comma, brace and quote inside a string, both
        // number kinds, an empty span and one of each metric record.
        let text = "\
{\"type\":\"span\",\"id\":0,\"parent\":null,\"name\":\"flow\",\"track\":0,\"start_us\":0.0,\"dur_us\":12.5,\"attrs\":[[\"design\",\"g,{\\\"x\\\"}\",false],[\"hits\",2,true]],\"events\":[{\"name\":\"split\",\"ts_us\":1.25,\"attrs\":[[\"cut\",5],[\"excess-ns\",0.125]]}]}
{\"type\":\"span\",\"id\":1,\"parent\":0,\"name\":\"trial-0\",\"track\":1,\"start_us\":2.0,\"dur_us\":3.0,\"attrs\":[],\"events\":[]}
{\"type\":\"counter\",\"name\":\"decisions.split\",\"value\":1}
{\"type\":\"histogram\",\"name\":\"slack-ns\",\"bounds\":[0.0,0.5],\"counts\":[0,1,0],\"total\":1,\"sum\":0.25,\"min\":0.25,\"max\":0.25}
";
        let tree = TraceTree::from_jsonl(text).unwrap();
        assert_eq!(tree.spans[0].attrs[0].value, Value::Str("g,{\"x\"}".into()));
        assert_eq!(tree.spans[1].parent, Some(0));
        assert_eq!(tree.metrics.counters["decisions.split"], 1);
        assert_eq!(tree.to_jsonl(), text);
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_crash() {
        let line = format!("{{\"type\":\"span\",\"attrs\":{}}}", "[".repeat(200_000));
        let err = TraceTree::from_jsonl(&line).unwrap_err();
        assert!(err.starts_with("line 1: nesting deeper than"), "{err}");
    }
}
