//! Streaming evaluation of multi-update transform queries: the
//! `twoPassSAX` architecture (Section 6) generalized to
//! `modify do (u1, …, uk)` with snapshot semantics.
//!
//! **Pass 1** parses the input once and runs k independent qualifier
//! prepasses ([`crate::PathPrepass`]) side by side — one bottom-up
//! `QualDP` per embedded path, all fed from the same event stream.
//! **Pass 2** re-parses, replays the k truth lists through k
//! [`crate::PathSelector`]s, merges the per-node effects under the
//! conflict rules of [`crate::multi`], and emits the transformed
//! document as events.
//!
//! Memory is O(depth · Σ|pᵢ|) + Σ|Ldᵢ| — independent of |T|, like the
//! single-update streaming method.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path as FsPath;

use xust_intern::Sym;
use xust_sax::{SaxEvent, SaxParser};

use crate::multi::MultiTransformQuery;
use crate::query::{InsertPos, UpdateOp};
use crate::sax2pass::{
    doc_events, EventSink, LdStorage, PathPrepass, PathSelector, PreparedPath, SaxStats,
    SaxTransformError, WriterSink,
};

/// Streaming multi-update transform over two reads of the input.
pub fn multi_two_pass_sax<R1: Read, R2: Read, W: Write>(
    mut pass1: SaxParser<R1>,
    mut pass2: SaxParser<R2>,
    q: &MultiTransformQuery,
    out: W,
    storage: LdStorage,
) -> Result<SaxStats, SaxTransformError> {
    // Pass 1: k qualifier prepasses over one parse.
    let mut prepasses: Vec<PathPrepass> = q
        .updates
        .iter()
        .map(|(p, _)| PathPrepass::new(p, storage))
        .collect();
    while let Some(ev) = pass1.next_event()? {
        for pre in &mut prepasses {
            pre.feed(ev.clone());
        }
    }
    let prepared: Vec<PreparedPath> = prepasses
        .into_iter()
        .map(PathPrepass::finish)
        .collect::<Result<_, _>>()?;
    let mut stats = SaxStats::default();
    for p in &prepared {
        stats.elements = stats.elements.max(p.stats.elements);
        stats.ld_entries += p.stats.ld_entries;
        stats.max_depth = stats.max_depth.max(p.stats.max_depth);
    }

    // Per-update constant-element event streams.
    let elem_events: Vec<Vec<SaxEvent>> = q
        .updates
        .iter()
        .map(|(_, op)| match op {
            UpdateOp::Insert { elem, .. } | UpdateOp::Replace { elem } => doc_events(elem),
            _ => Vec::new(),
        })
        .collect();

    // Pass 2: replay through k selectors, merge effects, emit.
    let mut selectors: Vec<PathSelector<'_>> =
        prepared.iter().map(PreparedPath::selector).collect();
    let ops: Vec<&UpdateOp> = q.updates.iter().map(|(_, op)| op).collect();
    let mut sink = WriterSink::new(out);
    let mut stack: Vec<MFrame> = Vec::new();
    let mut suppress: usize = 0;

    while let Some(ev) = pass2.next_event()? {
        match ev {
            SaxEvent::StartDocument | SaxEvent::EndDocument => {}
            SaxEvent::StartElement { name, attrs } => {
                // Every selector advances on every element — the cursor
                // replay must see the same stream as pass 1, suppressed
                // regions included.
                let at_root = stack.is_empty();
                let mut acts = Merged::default();
                for (i, sel) in selectors.iter_mut().enumerate() {
                    if sel.start_element(name) {
                        acts.absorb(i, ops[i]);
                    }
                }
                let mut frame = MFrame::default();
                if suppress > 0 {
                    suppress += 1;
                    frame.silent = true;
                } else {
                    if !at_root {
                        for &i in &acts.ins_before {
                            splice(&mut sink, &elem_events[i])?;
                        }
                        frame.ins_after = acts.ins_after;
                    }
                    if acts.deleted {
                        suppress += 1;
                        frame.suppressing = true;
                    } else if let Some(i) = acts.replace {
                        splice(&mut sink, &elem_events[i])?;
                        suppress += 1;
                        frame.suppressing = true;
                    } else {
                        let out_name = acts.rename.unwrap_or(name);
                        sink.event(SaxEvent::StartElement {
                            name: out_name,
                            attrs,
                        })?;
                        for &i in &acts.ins_first {
                            splice(&mut sink, &elem_events[i])?;
                        }
                        frame.end_name = Some(out_name);
                        frame.ins_last = acts.ins_last;
                    }
                }
                stack.push(frame);
                stats.max_depth = stats.max_depth.max(stack.len());
            }
            SaxEvent::Text(t) => {
                if suppress == 0 && !stack.is_empty() {
                    sink.event(SaxEvent::Text(t))?;
                }
            }
            SaxEvent::EndElement(_) => {
                for sel in &mut selectors {
                    sel.end_element();
                }
                let frame = stack
                    .pop()
                    .ok_or_else(|| SaxTransformError::Desync("end element without start".into()))?;
                if frame.silent {
                    suppress = suppress.saturating_sub(1);
                    continue;
                }
                if let Some(name) = frame.end_name {
                    for &i in &frame.ins_last {
                        splice(&mut sink, &elem_events[i])?;
                    }
                    sink.event(SaxEvent::EndElement(name))?;
                }
                if frame.suppressing {
                    suppress = suppress.saturating_sub(1);
                }
                // Sibling inserts survive delete/replace of their anchor
                // (conflict rule 5): emitted once the anchor is fully
                // consumed, in update order.
                for &i in &frame.ins_after {
                    splice(&mut sink, &elem_events[i])?;
                }
            }
        }
    }
    sink.finish()?;
    Ok(stats)
}

/// Convenience: transform a string, returning the serialized result.
pub fn multi_two_pass_sax_str(
    xml: &str,
    q: &MultiTransformQuery,
) -> Result<String, SaxTransformError> {
    let mut out = Vec::new();
    multi_two_pass_sax(
        SaxParser::from_str(xml),
        SaxParser::from_str(xml),
        q,
        &mut out,
        LdStorage::Memory,
    )?;
    Ok(String::from_utf8(out).expect("writer produces UTF-8"))
}

/// Convenience: transform file → file with bounded memory.
pub fn multi_two_pass_sax_files(
    input: impl AsRef<FsPath>,
    q: &MultiTransformQuery,
    output: impl AsRef<FsPath>,
    storage: LdStorage,
) -> Result<SaxStats, SaxTransformError> {
    let p1 = SaxParser::from_file(&input)?;
    let p2 = SaxParser::from_file(&input)?;
    let out = BufWriter::new(File::create(output)?);
    multi_two_pass_sax::<BufReader<File>, BufReader<File>, _>(p1, p2, q, out, storage)
}

fn splice(sink: &mut dyn EventSink, events: &[SaxEvent]) -> Result<(), SaxTransformError> {
    for ev in events {
        sink.event(ev.clone())?;
    }
    Ok(())
}

/// Merged per-node effects, as *indices* into the update list (so the
/// constant-element event streams are shared, not cloned).
#[derive(Default)]
struct Merged {
    deleted: bool,
    replace: Option<usize>,
    rename: Option<Sym>,
    ins_first: Vec<usize>,
    ins_last: Vec<usize>,
    ins_before: Vec<usize>,
    ins_after: Vec<usize>,
}

impl Merged {
    fn absorb(&mut self, i: usize, op: &UpdateOp) {
        match op {
            UpdateOp::Delete => self.deleted = true,
            UpdateOp::Replace { .. } => {
                if self.replace.is_none() {
                    self.replace = Some(i);
                }
            }
            UpdateOp::Rename { name } => {
                if self.rename.is_none() {
                    self.rename = Some(*name);
                }
            }
            UpdateOp::Insert { pos, .. } => match pos {
                InsertPos::FirstInto => self.ins_first.push(i),
                InsertPos::LastInto => self.ins_last.push(i),
                InsertPos::Before => self.ins_before.push(i),
                InsertPos::After => self.ins_after.push(i),
            },
        }
    }
}

/// Per-open-element pass-2 state.
#[derive(Default)]
struct MFrame {
    /// End tag to emit (None when the element is suppressed).
    end_name: Option<Sym>,
    /// Started inside an already-suppressed region.
    silent: bool,
    /// This element itself is deleted/replaced.
    suppressing: bool,
    /// `insert … into` updates to splice before the end tag.
    ins_last: Vec<usize>,
    /// `insert … after` updates to splice after the element.
    ins_after: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::{multi_snapshot, MultiTransformQuery};
    use crate::query::parse_transform;
    use xust_tree::Document;
    use xust_xpath::parse_path;

    fn agree(xml: &str, q: &MultiTransformQuery) -> String {
        let d = Document::parse(xml).unwrap();
        let expect = multi_snapshot(&d, q).serialize();
        let got = multi_two_pass_sax_str(xml, q).unwrap();
        assert_eq!(got, expect, "streaming multi deviates on {xml}");
        got
    }

    fn q(updates: Vec<(&str, UpdateOp)>) -> MultiTransformQuery {
        MultiTransformQuery::new(
            "d",
            updates
                .into_iter()
                .map(|(p, op)| (parse_path(p).unwrap(), op))
                .collect(),
        )
    }

    fn elem(s: &str) -> Document {
        Document::parse(s).unwrap()
    }

    #[test]
    fn independent_rules_stream() {
        let mq = q(vec![
            ("//price", UpdateOp::Delete),
            (
                "//part",
                UpdateOp::Insert {
                    elem: elem("<ok/>"),
                    pos: InsertPos::LastInto,
                },
            ),
        ]);
        let out = agree("<db><part><price>1</price></part><part/></db>", &mq);
        assert_eq!(out, "<db><part><ok/></part><part><ok/></part></db>");
    }

    #[test]
    fn conflict_rules_stream() {
        // delete dominates; first replace wins; sibling inserts survive.
        let mq = q(vec![
            ("//x", UpdateOp::Rename { name: "y".into() }),
            ("//x", UpdateOp::Delete),
            (
                "//x",
                UpdateOp::Insert {
                    elem: elem("<a/>"),
                    pos: InsertPos::After,
                },
            ),
        ]);
        assert_eq!(agree("<db><x/><z/></db>", &mq), "<db><a/><z/></db>");

        let mq = q(vec![
            (
                "//x",
                UpdateOp::Insert {
                    elem: elem("<b/>"),
                    pos: InsertPos::Before,
                },
            ),
            ("//x", UpdateOp::Replace { elem: elem("<r/>") }),
            ("//x", UpdateOp::Replace { elem: elem("<s/>") }),
        ]);
        assert_eq!(agree("<db><x/></db>", &mq), "<db><b/><r/></db>");
    }

    #[test]
    fn qualified_paths_stream() {
        let mq = q(vec![
            ("//part[pname = 'kb']/price", UpdateOp::Delete),
            (
                "//part[not(price < 10)]",
                UpdateOp::Insert {
                    elem: elem("<pricey/>"),
                    pos: InsertPos::FirstInto,
                },
            ),
        ]);
        agree(
            "<db><part><pname>kb</pname><price>12</price></part><part><pname>m</pname><price>5</price></part></db>",
            &mq,
        );
    }

    #[test]
    fn nested_and_overlapping_targets_stream() {
        let mq = q(vec![
            ("//b", UpdateOp::Rename { name: "c".into() }),
            (
                "//b//b",
                UpdateOp::Insert {
                    elem: elem("<deep/>"),
                    pos: InsertPos::LastInto,
                },
            ),
        ]);
        agree("<db><b><b><b/></b></b></db>", &mq);
    }

    #[test]
    fn updates_inside_suppressed_regions_are_void() {
        let mq = q(vec![
            ("//top", UpdateOp::Delete),
            (
                "//sub",
                UpdateOp::Insert {
                    elem: elem("<never/>"),
                    pos: InsertPos::Before,
                },
            ),
        ]);
        assert_eq!(
            agree("<db><top><sub/></top><keep><sub/></keep></db>", &mq),
            "<db><keep><never/><sub/></keep></db>"
        );
    }

    #[test]
    fn root_effects_stream() {
        // ε-free paths only (streaming handles root via the selectors).
        let mq = q(vec![("//db", UpdateOp::Rename { name: "r2".into() })]);
        assert_eq!(agree("<db><x/></db>", &mq), "<r2><x/></r2>");
        let mq = q(vec![(
            "//db",
            UpdateOp::Insert {
                elem: elem("<s/>"),
                pos: InsertPos::After,
            },
        )]);
        // Sibling insert at root skipped.
        assert_eq!(agree("<db><x/></db>", &mq), "<db><x/></db>");
    }

    #[test]
    fn single_rule_matches_single_update_streaming() {
        let single = parse_transform(
            r#"transform copy $a := doc("d") modify do delete $a//price return $a"#,
        )
        .unwrap();
        let xml = "<db><part><price>1</price><pname>a</pname></part></db>";
        let via_single = crate::sax2pass::two_pass_sax_str(xml, &single).unwrap();
        let multi = MultiTransformQuery::new("d", vec![(single.path, single.op)]);
        let via_multi = multi_two_pass_sax_str(xml, &multi).unwrap();
        assert_eq!(via_single, via_multi);
    }

    #[test]
    fn files_roundtrip_multi() {
        let dir = std::env::temp_dir();
        let input = dir.join("xust_multi_sax_in.xml");
        let output = dir.join("xust_multi_sax_out.xml");
        let xml = "<db><part><price>1</price></part></db>";
        std::fs::write(&input, xml).unwrap();
        let mq = q(vec![("//price", UpdateOp::Delete)]);
        let stats = multi_two_pass_sax_files(&input, &mq, &output, LdStorage::TempFile).unwrap();
        assert_eq!(
            std::fs::read_to_string(&output).unwrap(),
            "<db><part/></db>"
        );
        assert!(stats.max_depth >= 2);
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    #[test]
    fn malformed_input_errors_multi() {
        let mq = q(vec![("//x", UpdateOp::Delete)]);
        assert!(multi_two_pass_sax_str("<a><b></a>", &mq).is_err());
    }
}
