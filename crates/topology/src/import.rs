//! Topology Zoo GraphML import.
//!
//! The paper's ground-truth maps come from the Internet Topology Zoo, which
//! publishes GraphML files with per-node `Latitude`/`Longitude`/`label`
//! attributes. This module parses that dialect — with a small, dependency-
//! free XML reader covering exactly the subset GraphML uses — so users with
//! access to the Zoo archive can run RiskRoute on the *real* maps instead
//! of the synthesized corpus.
//!
//! Faithfulness to the Zoo's quirks:
//! - Nodes without coordinates (satellite PoPs, unplaced nodes) are dropped,
//!   along with their edges.
//! - Duplicate edges and self-loops (both present in some Zoo files) are
//!   skipped silently.
//! - `key` declarations are resolved by `attr.name`, so the per-file key
//!   ids (`d29`, `d32`, …) don't matter.

use crate::model::{Network, NetworkKind, Pop, PopId};
use riskroute_geo::GeoPoint;
use std::collections::HashMap;
use std::fmt;

/// Errors from GraphML import.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportError {
    /// The XML was structurally malformed.
    MalformedXml(String),
    /// No `<graph>` element found.
    NoGraph,
    /// An edge referenced an undeclared node id.
    UnknownNode(String),
    /// No node carried usable coordinates.
    NoUsableNodes,
    /// A coordinate failed to parse or was out of range.
    BadCoordinate {
        /// The node whose coordinate failed.
        node: String,
        /// The offending value.
        value: String,
    },
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::MalformedXml(m) => write!(f, "malformed XML: {m}"),
            ImportError::NoGraph => write!(f, "no <graph> element in document"),
            ImportError::UnknownNode(id) => write!(f, "edge references unknown node {id:?}"),
            ImportError::NoUsableNodes => {
                write!(f, "no node carries Latitude/Longitude coordinates")
            }
            ImportError::BadCoordinate { node, value } => {
                write!(f, "node {node:?} has unusable coordinate {value:?}")
            }
        }
    }
}

impl std::error::Error for ImportError {}

// ───────────────────────── minimal XML reader ──────────────────────────

/// One XML event.
#[derive(Debug, Clone, PartialEq)]
enum XmlEvent {
    /// `<name attr="v" …>` (also emitted for self-closing tags, followed by
    /// the matching `End`).
    Start {
        name: String,
        attrs: HashMap<String, String>,
    },
    /// `</name>` (or the synthetic end of a self-closing tag).
    End { name: String },
    /// Text between tags (entity-decoded, possibly whitespace).
    Text(String),
}

/// Tokenize an XML document into events. Supports the GraphML subset:
/// elements, attributes (single/double quoted), self-closing tags, comments,
/// processing instructions/declarations, CDATA, and the five predefined
/// entities.
fn parse_xml(input: &str) -> Result<Vec<XmlEvent>, ImportError> {
    let bytes = input.as_bytes();
    let mut events = Vec::new();
    let mut i = 0usize;
    let err = |m: &str| ImportError::MalformedXml(m.to_string());
    while i < bytes.len() {
        if bytes[i] == b'<' {
            if input[i..].starts_with("<!--") {
                let end = input[i..]
                    .find("-->")
                    .ok_or_else(|| err("unterminated comment"))?;
                i += end + 3;
            } else if input[i..].starts_with("<![CDATA[") {
                let end = input[i..]
                    .find("]]>")
                    .ok_or_else(|| err("unterminated CDATA"))?;
                events.push(XmlEvent::Text(input[i + 9..i + end].to_string()));
                i += end + 3;
            } else if input[i..].starts_with("<?") || input[i..].starts_with("<!") {
                let end = input[i..]
                    .find('>')
                    .ok_or_else(|| err("unterminated declaration"))?;
                i += end + 1;
            } else {
                let end = input[i..]
                    .find('>')
                    .ok_or_else(|| err("unterminated tag"))?;
                let inner = &input[i + 1..i + end];
                i += end + 1;
                if let Some(name) = inner.strip_prefix('/') {
                    events.push(XmlEvent::End {
                        name: name.trim().to_string(),
                    });
                } else {
                    let self_closing = inner.ends_with('/');
                    let inner = inner.strip_suffix('/').unwrap_or(inner).trim();
                    let (name, attrs) = parse_tag(inner)?;
                    events.push(XmlEvent::Start {
                        name: name.clone(),
                        attrs,
                    });
                    if self_closing {
                        events.push(XmlEvent::End { name });
                    }
                }
            }
        } else {
            let end = input[i..].find('<').unwrap_or(input.len() - i);
            let text = &input[i..i + end];
            if !text.trim().is_empty() {
                events.push(XmlEvent::Text(decode_entities(text)));
            }
            i += end;
        }
    }
    Ok(events)
}

/// Parse `name attr="v" attr2='w'` into name + attribute map.
fn parse_tag(inner: &str) -> Result<(String, HashMap<String, String>), ImportError> {
    let err = |m: &str| ImportError::MalformedXml(m.to_string());
    let mut chars = inner.char_indices().peekable();
    let name_end = inner
        .find(|c: char| c.is_whitespace())
        .unwrap_or(inner.len());
    let name = inner[..name_end].to_string();
    if name.is_empty() {
        return Err(err("empty tag name"));
    }
    let mut attrs = HashMap::new();
    // Skip past the name.
    while let Some(&(idx, _)) = chars.peek() {
        if idx >= name_end {
            break;
        }
        chars.next();
    }
    let rest = &inner[name_end..];
    let mut j = 0usize;
    let rb = rest.as_bytes();
    while j < rb.len() {
        while j < rb.len() && rb[j].is_ascii_whitespace() {
            j += 1;
        }
        if j >= rb.len() {
            break;
        }
        let eq = rest[j..]
            .find('=')
            .ok_or_else(|| err("attribute without value"))?;
        let key = rest[j..j + eq].trim().to_string();
        j += eq + 1;
        while j < rb.len() && rb[j].is_ascii_whitespace() {
            j += 1;
        }
        if j >= rb.len() {
            return Err(err("attribute value missing"));
        }
        let quote = rb[j];
        if quote != b'"' && quote != b'\'' {
            return Err(err("unquoted attribute value"));
        }
        j += 1;
        let close = rest[j..]
            .find(quote as char)
            .ok_or_else(|| err("unterminated attribute value"))?;
        attrs.insert(key, decode_entities(&rest[j..j + close]));
        j += close + 1;
    }
    Ok((name, attrs))
}

fn decode_entities(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

// ──────────────────────── GraphML interpretation ───────────────────────

/// Parse a Topology Zoo GraphML document into a [`Network`].
///
/// `name` and `kind` are supplied by the caller (Zoo files carry a network
/// name attribute, but naming authority stays with the user so corpus
/// integration is explicit).
///
/// # Errors
/// See [`ImportError`]. Nodes without coordinates are dropped (not an
/// error); an edge touching a dropped node is dropped with it.
pub fn network_from_graphml(
    xml: &str,
    name: &str,
    kind: NetworkKind,
) -> Result<Network, ImportError> {
    let events = parse_xml(xml)?;

    // Pass 1: key declarations (attr.name → key id) and graph presence.
    let mut lat_keys = Vec::new();
    let mut lon_keys = Vec::new();
    let mut label_keys = Vec::new();
    let mut has_graph = false;
    for e in &events {
        if let XmlEvent::Start { name, attrs } = e {
            match name.as_str() {
                "key" => {
                    let attr_name = attrs.get("attr.name").map(String::as_str);
                    let id = attrs.get("id").cloned().unwrap_or_default();
                    match attr_name {
                        Some("Latitude") => lat_keys.push(id),
                        Some("Longitude") => lon_keys.push(id),
                        Some("label") => label_keys.push(id),
                        _ => {}
                    }
                }
                "graph" => has_graph = true,
                _ => {}
            }
        }
    }
    if !has_graph {
        return Err(ImportError::NoGraph);
    }

    // Pass 2: nodes and edges.
    struct RawNode {
        id: String,
        lat: Option<f64>,
        lon: Option<f64>,
        label: Option<String>,
        bad_coord: Option<String>,
    }
    let mut nodes: Vec<RawNode> = Vec::new();
    let mut edges: Vec<(String, String)> = Vec::new();
    let mut current_node: Option<RawNode> = None;
    let mut current_data_key: Option<String> = None;
    let mut current_text = String::new();

    for e in &events {
        match e {
            XmlEvent::Start { name, attrs } => match name.as_str() {
                "node" => {
                    current_node = Some(RawNode {
                        id: attrs.get("id").cloned().unwrap_or_default(),
                        lat: None,
                        lon: None,
                        label: None,
                        bad_coord: None,
                    });
                }
                "edge" => {
                    let s = attrs.get("source").cloned().unwrap_or_default();
                    let t = attrs.get("target").cloned().unwrap_or_default();
                    edges.push((s, t));
                }
                "data" => {
                    current_data_key = attrs.get("key").cloned();
                    current_text.clear();
                }
                _ => {}
            },
            XmlEvent::Text(t) => {
                if current_data_key.is_some() {
                    current_text.push_str(t);
                }
            }
            XmlEvent::End { name } => match name.as_str() {
                "data" => {
                    if let (Some(node), Some(key)) = (&mut current_node, &current_data_key) {
                        let value = current_text.trim();
                        if lat_keys.iter().any(|k| k == key) {
                            match value.parse::<f64>() {
                                Ok(v) => node.lat = Some(v),
                                Err(_) => node.bad_coord = Some(value.to_string()),
                            }
                        } else if lon_keys.iter().any(|k| k == key) {
                            match value.parse::<f64>() {
                                Ok(v) => node.lon = Some(v),
                                Err(_) => node.bad_coord = Some(value.to_string()),
                            }
                        } else if label_keys.iter().any(|k| k == key) {
                            node.label = Some(value.to_string());
                        }
                    }
                    current_data_key = None;
                }
                "node" => {
                    if let Some(node) = current_node.take() {
                        nodes.push(node);
                    }
                }
                _ => {}
            },
        }
    }

    // Materialize: drop coordinate-less nodes; error on garbage coordinates.
    let mut id_to_pop: HashMap<String, PopId> = HashMap::new();
    let mut pops: Vec<Pop> = Vec::new();
    let declared: std::collections::HashSet<&str> = nodes.iter().map(|n| n.id.as_str()).collect();
    for node in &nodes {
        if let Some(bad) = &node.bad_coord {
            return Err(ImportError::BadCoordinate {
                node: node.id.clone(),
                value: bad.clone(),
            });
        }
        let (Some(lat), Some(lon)) = (node.lat, node.lon) else {
            continue; // unplaced node: dropped, Zoo-style
        };
        let location = GeoPoint::new(lat, lon).map_err(|_| ImportError::BadCoordinate {
            node: node.id.clone(),
            value: format!("({lat}, {lon})"),
        })?;
        id_to_pop.insert(node.id.clone(), pops.len());
        pops.push(Pop {
            name: node.label.clone().unwrap_or_else(|| node.id.clone()),
            location,
        });
    }
    if pops.is_empty() {
        return Err(ImportError::NoUsableNodes);
    }

    let mut links: Vec<(PopId, PopId)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (s, t) in &edges {
        // An edge to an undeclared node is a document error; an edge to a
        // declared-but-unplaced node is silently dropped with the node.
        let s_declared = declared.contains(s.as_str());
        let t_declared = declared.contains(t.as_str());
        if !s_declared {
            return Err(ImportError::UnknownNode(s.clone()));
        }
        if !t_declared {
            return Err(ImportError::UnknownNode(t.clone()));
        }
        let (Some(&a), Some(&b)) = (id_to_pop.get(s), id_to_pop.get(t)) else {
            continue;
        };
        if a == b {
            continue; // self-loop
        }
        let key = (a.min(b), a.max(b));
        if seen.insert(key) {
            links.push(key);
        }
    }

    Network::new(name, kind, pops, links)
        .map_err(|e| ImportError::MalformedXml(format!("inconsistent topology: {e}")))
}

/// Serialize a [`Network`] as Topology Zoo-dialect GraphML (the inverse of
/// [`network_from_graphml`]): `Latitude`/`Longitude`/`label` node data keys
/// and undirected edges.
///
/// The output re-imports losslessly (coordinates to full precision, labels
/// entity-escaped), so exported corpora interoperate with any GraphML
/// tooling that reads the Zoo.
pub fn network_to_graphml(network: &Network) -> String {
    let mut out = String::from(
        "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n\
         <graphml xmlns=\"http://graphml.graphdrawing.org/xmlns\">\n\
         \x20 <key attr.name=\"Latitude\" attr.type=\"double\" for=\"node\" id=\"d0\"/>\n\
         \x20 <key attr.name=\"Longitude\" attr.type=\"double\" for=\"node\" id=\"d1\"/>\n\
         \x20 <key attr.name=\"label\" attr.type=\"string\" for=\"node\" id=\"d2\"/>\n",
    );
    out.push_str(&format!(
        "  <graph edgedefault=\"undirected\" id=\"{}\">\n",
        encode_entities(network.name())
    ));
    for (i, p) in network.pops().iter().enumerate() {
        out.push_str(&format!(
            "    <node id=\"{i}\">\n      <data key=\"d2\">{}</data>\n      \
             <data key=\"d0\">{}</data>\n      <data key=\"d1\">{}</data>\n    </node>\n",
            encode_entities(&p.name),
            p.location.lat(),
            p.location.lon()
        ));
    }
    for l in network.links() {
        out.push_str(&format!(
            "    <edge source=\"{}\" target=\"{}\"/>\n",
            l.a, l.b
        ));
    }
    out.push_str("  </graph>\n</graphml>\n");
    out
}

fn encode_entities(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
        .replace('\'', "&apos;")
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    /// A Zoo-faithful miniature (Abilene-style keys and structure).
    const SAMPLE: &str = r#"<?xml version="1.0" encoding="utf-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key attr.name="Latitude" attr.type="double" for="node" id="d29"/>
  <key attr.name="Longitude" attr.type="double" for="node" id="d32"/>
  <key attr.name="label" attr.type="string" for="node" id="d33"/>
  <graph edgedefault="undirected">
    <node id="0">
      <data key="d33">New York</data>
      <data key="d29">40.71</data>
      <data key="d32">-74.01</data>
    </node>
    <node id="1">
      <data key="d33">Chicago</data>
      <data key="d29">41.88</data>
      <data key="d32">-87.63</data>
    </node>
    <node id="2">
      <data key="d33">Houston</data>
      <data key="d29">29.76</data>
      <data key="d32">-95.37</data>
    </node>
    <!-- an unplaced node, as in many Zoo files -->
    <node id="3">
      <data key="d33">Satellite Uplink</data>
    </node>
    <edge source="0" target="1"/>
    <edge source="1" target="2"/>
    <edge source="1" target="0"/> <!-- duplicate -->
    <edge source="2" target="2"/> <!-- self loop -->
    <edge source="0" target="3"/> <!-- edge to unplaced node -->
  </graph>
</graphml>"#;

    #[test]
    fn imports_the_sample() {
        let net = network_from_graphml(SAMPLE, "mini-zoo", NetworkKind::Regional).unwrap();
        assert_eq!(net.name(), "mini-zoo");
        assert_eq!(net.pop_count(), 3, "unplaced node dropped");
        assert_eq!(
            net.link_count(),
            2,
            "dup, self-loop, and dangling edges dropped"
        );
        assert_eq!(net.pops()[0].name, "New York");
        assert!((net.pops()[2].location.lat() - 29.76).abs() < 1e-9);
        assert!(net.has_link(0, 1));
        assert!(net.has_link(1, 2));
        assert!(!net.has_link(0, 2));
    }

    #[test]
    fn distances_are_recomputed() {
        let net = network_from_graphml(SAMPLE, "mini-zoo", NetworkKind::Regional).unwrap();
        let nyc_chi = net.links()[0].miles;
        assert!((nyc_chi - 712.0).abs() < 20.0, "got {nyc_chi}");
    }

    #[test]
    fn self_closing_and_attribute_quoting_variants() {
        let xml = r#"<graphml><key attr.name='Latitude' id='a'/><key attr.name='Longitude' id='b'/>
            <graph><node id='n0'><data key='a'>30.5</data><data key='b'>-90.5</data></node></graph></graphml>"#;
        let net = network_from_graphml(xml, "x", NetworkKind::Tier1).unwrap();
        assert_eq!(net.pop_count(), 1);
        assert_eq!(net.pops()[0].name, "n0", "node id is the fallback label");
    }

    #[test]
    fn entity_decoding_in_labels() {
        let xml = r#"<graphml><key attr.name="Latitude" id="a"/><key attr.name="Longitude" id="b"/>
            <key attr.name="label" id="c"/>
            <graph><node id="0"><data key="c">AT&amp;T &quot;East&quot;</data>
            <data key="a">33.7</data><data key="b">-84.4</data></node></graph></graphml>"#;
        let net = network_from_graphml(xml, "x", NetworkKind::Tier1).unwrap();
        assert_eq!(net.pops()[0].name, "AT&T \"East\"");
    }

    #[test]
    fn missing_graph_is_an_error() {
        let xml = r#"<graphml><key attr.name="Latitude" id="a"/></graphml>"#;
        assert_eq!(
            network_from_graphml(xml, "x", NetworkKind::Tier1).unwrap_err(),
            ImportError::NoGraph
        );
    }

    #[test]
    fn edge_to_undeclared_node_is_an_error() {
        let xml = r#"<graphml><key attr.name="Latitude" id="a"/><key attr.name="Longitude" id="b"/>
            <graph><node id="0"><data key="a">30</data><data key="b">-90</data></node>
            <edge source="0" target="ghost"/></graph></graphml>"#;
        assert_eq!(
            network_from_graphml(xml, "x", NetworkKind::Tier1).unwrap_err(),
            ImportError::UnknownNode("ghost".to_string())
        );
    }

    #[test]
    fn garbage_coordinates_are_an_error() {
        let xml = r#"<graphml><key attr.name="Latitude" id="a"/><key attr.name="Longitude" id="b"/>
            <graph><node id="0"><data key="a">not-a-number</data><data key="b">-90</data></node></graph></graphml>"#;
        assert!(matches!(
            network_from_graphml(xml, "x", NetworkKind::Tier1).unwrap_err(),
            ImportError::BadCoordinate { .. }
        ));
    }

    #[test]
    fn out_of_range_coordinates_are_an_error() {
        let xml = r#"<graphml><key attr.name="Latitude" id="a"/><key attr.name="Longitude" id="b"/>
            <graph><node id="0"><data key="a">95.0</data><data key="b">-90</data></node></graph></graphml>"#;
        assert!(matches!(
            network_from_graphml(xml, "x", NetworkKind::Tier1).unwrap_err(),
            ImportError::BadCoordinate { .. }
        ));
    }

    #[test]
    fn all_unplaced_nodes_is_an_error() {
        let xml = r#"<graphml><key attr.name="Latitude" id="a"/><key attr.name="Longitude" id="b"/>
            <graph><node id="0"/><node id="1"/></graph></graphml>"#;
        assert_eq!(
            network_from_graphml(xml, "x", NetworkKind::Tier1).unwrap_err(),
            ImportError::NoUsableNodes
        );
    }

    #[test]
    fn unterminated_tag_is_malformed() {
        assert!(matches!(
            network_from_graphml("<graphml><graph", "x", NetworkKind::Tier1).unwrap_err(),
            ImportError::MalformedXml(_)
        ));
    }

    #[test]
    fn cdata_and_comments_are_handled() {
        let xml = r#"<graphml><!-- zoo export --><key attr.name="Latitude" id="a"/>
            <key attr.name="Longitude" id="b"/><key attr.name="label" id="c"/>
            <graph><node id="0"><data key="c"><![CDATA[Name <with> brackets]]></data>
            <data key="a">40</data><data key="b">-80</data></node></graph></graphml>"#;
        let net = network_from_graphml(xml, "x", NetworkKind::Tier1).unwrap();
        assert_eq!(net.pops()[0].name, "Name <with> brackets");
    }

    #[test]
    fn export_round_trips_losslessly() {
        let original = network_from_graphml(SAMPLE, "mini-zoo", NetworkKind::Regional).unwrap();
        let xml = network_to_graphml(&original);
        let back = network_from_graphml(&xml, "mini-zoo", NetworkKind::Regional).unwrap();
        assert_eq!(back.pop_count(), original.pop_count());
        assert_eq!(back.link_count(), original.link_count());
        for (a, b) in original.pops().iter().zip(back.pops()) {
            assert_eq!(a.name, b.name);
            assert!(riskroute_geo::distance::great_circle_miles(a.location, b.location) < 1e-9);
        }
        for l in original.links() {
            assert!(back.has_link(l.a, l.b));
        }
    }

    #[test]
    fn export_escapes_entities() {
        let net = Network::new(
            "amp<>net",
            NetworkKind::Tier1,
            vec![Pop {
                name: "AT&T \"East\"".into(),
                location: GeoPoint::new(33.7, -84.4).unwrap(),
            }],
            vec![],
        )
        .unwrap();
        let xml = network_to_graphml(&net);
        assert!(xml.contains("AT&amp;T &quot;East&quot;"));
        assert!(xml.contains("id=\"amp&lt;&gt;net\""));
        // And the escaped document re-imports with the original label.
        let back = network_from_graphml(&xml, "x", NetworkKind::Tier1).unwrap();
        assert_eq!(back.pops()[0].name, "AT&T \"East\"");
    }

    #[test]
    fn synthesized_corpus_networks_round_trip() {
        let net = crate::tier1::synthesize_tier1(&crate::tier1::TIER1_SPECS[4], 42); // Sprint
        let xml = network_to_graphml(&net);
        let back = network_from_graphml(&xml, net.name(), net.kind()).unwrap();
        assert_eq!(back.pop_count(), net.pop_count());
        assert_eq!(back.link_count(), net.link_count());
    }

    #[test]
    fn imported_network_drives_the_planner() {
        // End-to-end: imported topology → graph → reachability. The chain
        // New York–Chicago–Houston is the only route, and its miles are the
        // graph's total.
        let net = network_from_graphml(SAMPLE, "mini-zoo", NetworkKind::Regional).unwrap();
        let g = net.distance_graph();
        assert_eq!(
            riskroute_graph::components::reachable_from(&g, 0),
            vec![0, 1, 2]
        );
        let miles = g.total_weight();
        assert!(miles > 1500.0 && miles < 2300.0);
    }
}
