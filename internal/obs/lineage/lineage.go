// Package lineage records run provenance as a content-addressed DAG:
// configuration → checkpoint versions → benchmark/serve artifacts. Every
// training, benchmark, and serving run writes (or extends) a lineage file
// next to its outputs, so any artifact can be traced back to the exact
// configuration and weight versions that produced it.
//
// Node identity is a content address: the sha256 of the node's canonical
// encoding (kind, name, sorted attributes, sorted parent IDs). Two runs that
// produce byte-identical checkpoints therefore mint the same checkpoint node
// ID, and their graphs join when merged — a serve run's lineage links to the
// training run that wrote the weights it loaded, with no coordination beyond
// hashing the same file.
package lineage

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Schema identifies the lineage file format.
const Schema = "repro/lineage/v1"

// Node kinds. A config node has no parents; checkpoint and artifact nodes
// point at the nodes they were derived from.
const (
	KindConfig     = "config"
	KindCheckpoint = "checkpoint"
	KindArtifact   = "artifact"
	KindRun        = "run"
)

// Node is one vertex of the lineage DAG. ID is derived from the other
// fields; Verify recomputes it.
type Node struct {
	ID      string            `json:"id"`
	Kind    string            `json:"kind"`
	Name    string            `json:"name"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Parents []string          `json:"parents,omitempty"`
}

// canonical returns the deterministic byte encoding the ID hashes: a fixed
// field order with sorted attribute keys and sorted parents. Separator bytes
// (0x00 between fields, 0x01 between list entries) keep distinct field
// splits from colliding.
func (n *Node) canonical() []byte {
	var buf []byte
	app := func(s string) {
		buf = append(buf, s...)
		buf = append(buf, 0)
	}
	app(n.Kind)
	app(n.Name)
	keys := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		app(k)
		app(n.Attrs[k])
		buf = append(buf, 1)
	}
	parents := append([]string(nil), n.Parents...)
	sort.Strings(parents)
	for _, p := range parents {
		app(p)
		buf = append(buf, 1)
	}
	return buf
}

// computeID returns the node's content address.
func (n *Node) computeID() string {
	sum := sha256.Sum256(n.canonical())
	return "sha256:" + hex.EncodeToString(sum[:])
}

// Graph is an append-only set of nodes keyed by content address.
type Graph struct {
	Schema string `json:"schema"`
	Nodes  []Node `json:"nodes"`

	index map[string]int // ID → position in Nodes
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{Schema: Schema, index: map[string]int{}}
}

// Add computes the node's content address, inserts it if new, and returns
// the ID. Adding an identical node twice is a no-op (same content → same
// ID), which is what lets separate runs converge on shared nodes.
func (g *Graph) Add(kind, name string, attrs map[string]string, parents ...string) string {
	n := Node{Kind: kind, Name: name, Attrs: attrs, Parents: append([]string(nil), parents...)}
	sort.Strings(n.Parents)
	n.ID = n.computeID()
	if g.index == nil {
		g.index = map[string]int{}
	}
	if _, ok := g.index[n.ID]; !ok {
		g.index[n.ID] = len(g.Nodes)
		g.Nodes = append(g.Nodes, n)
	}
	return n.ID
}

// Lookup returns the node with the given ID.
func (g *Graph) Lookup(id string) (Node, bool) {
	if g.index == nil {
		g.reindex()
	}
	i, ok := g.index[id]
	if !ok {
		return Node{}, false
	}
	return g.Nodes[i], true
}

func (g *Graph) reindex() {
	g.index = map[string]int{}
	for i, n := range g.Nodes {
		g.index[n.ID] = i
	}
}

// Verify recomputes every node's content address and checks parent
// references resolve within the graph.
func (g *Graph) Verify() error {
	if g.Schema != Schema {
		return fmt.Errorf("lineage: schema %q, want %q", g.Schema, Schema)
	}
	ids := map[string]bool{}
	for _, n := range g.Nodes {
		ids[n.ID] = true
	}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if got := n.computeID(); got != n.ID {
			return fmt.Errorf("lineage: node %d (%s %q) ID %s does not match content %s", i, n.Kind, n.Name, n.ID, got)
		}
		for _, p := range n.Parents {
			if !ids[p] {
				return fmt.Errorf("lineage: node %s references missing parent %s", n.ID, p)
			}
		}
	}
	return nil
}

// Merge adds every node of other into g (content addressing deduplicates
// shared nodes).
func (g *Graph) Merge(other *Graph) {
	for _, n := range other.Nodes {
		if g.index == nil {
			g.reindex()
		}
		if _, ok := g.index[n.ID]; !ok {
			g.index[n.ID] = len(g.Nodes)
			g.Nodes = append(g.Nodes, n)
		}
	}
}

// Write encodes the graph as deterministic indented JSON (nodes sorted by
// ID) and renames it into place, so readers never observe a partial file.
func (g *Graph) Write(path string) error {
	if err := g.Verify(); err != nil {
		return err
	}
	out := Graph{Schema: g.Schema, Nodes: append([]Node(nil), g.Nodes...)}
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].ID < out.Nodes[j].ID })
	buf, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Load reads and verifies a lineage file. A missing file yields an empty
// graph, so runs extend lineage without an existence check.
func Load(path string) (*Graph, error) {
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return New(), nil
	}
	if err != nil {
		return nil, err
	}
	g := New()
	if err := json.Unmarshal(buf, g); err != nil {
		return nil, fmt.Errorf("lineage: %s: %w", path, err)
	}
	g.reindex()
	if err := g.Verify(); err != nil {
		return nil, fmt.Errorf("lineage: %s: %w", path, err)
	}
	return g, nil
}

// FileHash content-addresses a file on disk (sha256 of its bytes) for use
// as a checkpoint or artifact attribute: nodes for byte-identical files get
// identical IDs regardless of which run minted them.
func FileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}
