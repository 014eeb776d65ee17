// Package topology models the data center networks the paper evaluates on:
// a generic directed multigraph of hosts and switches, builders for the
// single-rooted tree of §V-A, the k-ary fat-tree of Al-Fares et al. used in
// the multi-rooted simulations, and the partial fat-tree testbed of §VI,
// plus up-down equal-cost path enumeration and ECMP path selection.
//
// Links are directed and have uniform-per-link capacities in bytes/second.
// A bidirectional cable is two Links.
package topology

import (
	"fmt"
	"strings"
)

// NodeID identifies a node (host or switch) in a Graph.
type NodeID int32

// LinkID identifies a directed link in a Graph.
type LinkID int32

// Kind classifies nodes by their role in the tree.
type Kind uint8

// Node kinds, from the leaves upward.
const (
	Host Kind = iota
	ToR       // top-of-rack / edge switch
	Agg       // aggregation switch
	Core      // core switch
)

func (k Kind) String() string {
	switch k {
	case Host:
		return "host"
	case ToR:
		return "tor"
	case Agg:
		return "agg"
	case Core:
		return "core"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Node is a vertex of the topology graph.
type Node struct {
	ID   NodeID
	Kind Kind
	Name string
	// Level is the distance from the host layer (hosts are level 0).
	Level int
	// Pod is the pod index for fat-trees, or the subtree index for
	// single-rooted trees; -1 when not applicable (e.g. core switches).
	Pod int
}

// Link is a directed edge with a fixed capacity in bytes per second.
type Link struct {
	ID       LinkID
	Src, Dst NodeID
	Capacity float64 // bytes per second
	Name     string
}

// Path is a sequence of directed links from a source host to a destination
// host. A nil/empty path means "source equals destination".
type Path []LinkID

// Graph is an immutable-after-build network topology.
type Graph struct {
	nodes []Node
	links []Link
	// out[n] lists link IDs leaving node n.
	out [][]LinkID
	// linkIndex maps (src,dst) to the link ID (at most one link per
	// ordered pair in all our topologies).
	linkIndex map[[2]NodeID]LinkID
	hosts     []NodeID
}

// NewGraph returns an empty graph ready for AddNode/AddLink.
func NewGraph() *Graph {
	return &Graph{linkIndex: make(map[[2]NodeID]LinkID)}
}

// AddNode appends a node and returns its ID.
func (g *Graph) AddNode(kind Kind, name string, level, pod int) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Kind: kind, Name: name, Level: level, Pod: pod})
	g.out = append(g.out, nil)
	if kind == Host {
		g.hosts = append(g.hosts, id)
	}
	return id
}

// AddLink appends a directed link and returns its ID.
func (g *Graph) AddLink(src, dst NodeID, capacity float64) LinkID {
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{
		ID: id, Src: src, Dst: dst, Capacity: capacity,
		Name: g.nodes[src].Name + "->" + g.nodes[dst].Name,
	})
	g.out[src] = append(g.out[src], id)
	g.linkIndex[[2]NodeID{src, dst}] = id
	return id
}

// AddDuplex adds a pair of opposite-direction links of equal capacity and
// returns their IDs (src->dst first).
func (g *Graph) AddDuplex(a, b NodeID, capacity float64) (LinkID, LinkID) {
	return g.AddLink(a, b, capacity), g.AddLink(b, a, capacity)
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the number of directed links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Link returns the link with the given ID.
func (g *Graph) Link(id LinkID) Link { return g.links[id] }

// Out returns the IDs of links leaving n. The slice must not be mutated.
func (g *Graph) Out(n NodeID) []LinkID { return g.out[n] }

// Hosts returns the IDs of all host nodes in creation order.
// The slice must not be mutated.
func (g *Graph) Hosts() []NodeID { return g.hosts }

// LinkNames returns every link's name, indexed by link ID: the table a
// decision log's Meta record carries so a replay can label links.
func (g *Graph) LinkNames() []string {
	names := make([]string, len(g.links))
	for i, l := range g.links {
		names[i] = l.Name
	}
	return names
}

// LinkBetween returns the directed link from src to dst, if one exists.
func (g *Graph) LinkBetween(src, dst NodeID) (LinkID, bool) {
	id, ok := g.linkIndex[[2]NodeID{src, dst}]
	return id, ok
}

// PathNodes expands a path into the node sequence it visits.
func (g *Graph) PathNodes(p Path) []NodeID {
	if len(p) == 0 {
		return nil
	}
	nodes := make([]NodeID, 0, len(p)+1)
	nodes = append(nodes, g.links[p[0]].Src)
	for _, l := range p {
		nodes = append(nodes, g.links[l].Dst)
	}
	return nodes
}

// ValidPath reports whether p is a contiguous directed path from src to dst.
func (g *Graph) ValidPath(p Path, src, dst NodeID) bool {
	if len(p) == 0 {
		return src == dst
	}
	if g.links[p[0]].Src != src || g.links[p[len(p)-1]].Dst != dst {
		return false
	}
	for i := 1; i < len(p); i++ {
		if g.links[p[i]].Src != g.links[p[i-1]].Dst {
			return false
		}
	}
	return true
}

// MinCapacity returns the smallest link capacity along the path, or 0 for an
// empty path.
func (g *Graph) MinCapacity(p Path) float64 {
	if len(p) == 0 {
		return 0
	}
	c := g.links[p[0]].Capacity
	for _, l := range p[1:] {
		if g.links[l].Capacity < c {
			c = g.links[l].Capacity
		}
	}
	return c
}

// DOT renders the graph in Graphviz format (duplex link pairs collapse to
// one undirected edge), for eyeballing topologies:
//
//	tapstopo -topo bcube -n 4 -k 1 -dot | dot -Tsvg > bcube.svg
func DOT(g *Graph) string {
	var b strings.Builder
	b.WriteString("graph taps {\n  node [shape=box,fontsize=10];\n")
	for _, n := range g.nodes {
		shape := "ellipse"
		if n.Kind == Host {
			shape = "box"
		}
		fmt.Fprintf(&b, "  n%d [label=%q,shape=%s];\n", n.ID, n.Name, shape)
	}
	seen := make(map[[2]NodeID]bool)
	for _, l := range g.links {
		a, c := l.Src, l.Dst
		if a > c {
			a, c = c, a
		}
		key := [2]NodeID{a, c}
		if seen[key] {
			continue
		}
		seen[key] = true
		fmt.Fprintf(&b, "  n%d -- n%d;\n", a, c)
	}
	b.WriteString("}\n")
	return b.String()
}
