package topology

import "fmt"

// Gbps converts gigabits per second to the bytes-per-second capacities used
// by Graph links.
func Gbps(g float64) float64 { return g * 1e9 / 8 }

// SingleRootedTreeSpec describes the three-level single-rooted tree of
// §V-A: one core switch, Pods aggregation switches below it, RacksPerPod
// ToR switches below each aggregation switch, and HostsPerRack hosts per
// ToR. All links share LinkCapacity bytes/second.
type SingleRootedTreeSpec struct {
	Pods         int
	RacksPerPod  int
	HostsPerRack int
	LinkCapacity float64
}

// PaperSingleRootedTree is the full-scale topology of §V-A: 30 pods × 30
// racks × 40 hosts = 36,000 servers, 1 Gbps links.
func PaperSingleRootedTree() SingleRootedTreeSpec {
	return SingleRootedTreeSpec{Pods: 30, RacksPerPod: 30, HostsPerRack: 40, LinkCapacity: Gbps(1)}
}

// SingleRootedTree builds the tree and its (unique-path) routing.
func SingleRootedTree(spec SingleRootedTreeSpec) (*Graph, Routing) {
	g := NewGraph()
	core := g.AddNode(Core, "core", 3, -1)
	parent := make([]NodeID, 0, 1+spec.Pods*(1+spec.RacksPerPod))
	grow := func(n NodeID, p NodeID) {
		for int(n) >= len(parent) {
			parent = append(parent, -1)
		}
		parent[n] = p
	}
	grow(core, -1)
	for p := 0; p < spec.Pods; p++ {
		agg := g.AddNode(Agg, fmt.Sprintf("agg%d", p), 2, p)
		g.AddDuplex(agg, core, spec.LinkCapacity)
		grow(agg, core)
		for r := 0; r < spec.RacksPerPod; r++ {
			tor := g.AddNode(ToR, fmt.Sprintf("tor%d.%d", p, r), 1, p)
			g.AddDuplex(tor, agg, spec.LinkCapacity)
			grow(tor, agg)
			for h := 0; h < spec.HostsPerRack; h++ {
				host := g.AddNode(Host, fmt.Sprintf("h%d.%d.%d", p, r, h), 0, p)
				g.AddDuplex(host, tor, spec.LinkCapacity)
				grow(host, tor)
			}
		}
	}
	return g, &treeRouting{g: g, parent: parent}
}

// treeRouting routes on a tree with unique paths via lowest common ancestor.
type treeRouting struct {
	g      *Graph
	parent []NodeID
}

// count is 1: a tree has one path between any two nodes.
func (t *treeRouting) count(src, dst NodeID) int { return 1 }

func (t *treeRouting) Paths(src, dst NodeID, max int, key uint64) []Path {
	if src == dst {
		return []Path{nil}
	}
	// Climb both nodes to the root recording the chains.
	chain := func(n NodeID) []NodeID {
		var c []NodeID
		for n != -1 {
			c = append(c, n)
			n = t.parent[n]
		}
		return c
	}
	up, down := chain(src), chain(dst)
	// Find lowest common ancestor: strip the shared suffix.
	i, j := len(up)-1, len(down)-1
	for i > 0 && j > 0 && up[i-1] == down[j-1] {
		i--
		j--
	}
	// Path: src ... up[i] (LCA) ... dst
	var p Path
	for k := 0; k < i; k++ {
		l, ok := t.g.LinkBetween(up[k], up[k+1])
		if !ok {
			return nil
		}
		p = append(p, l)
	}
	for k := j; k > 0; k-- {
		l, ok := t.g.LinkBetween(down[k], down[k-1])
		if !ok {
			return nil
		}
		p = append(p, l)
	}
	return []Path{p}
}

// FatTreeSpec describes a k-ary fat-tree (Al-Fares et al.): k pods, each
// with k/2 edge and k/2 aggregation switches, (k/2)² core switches, and
// k³/4 hosts. K must be even.
type FatTreeSpec struct {
	K            int
	LinkCapacity float64
}

// fatTree holds the structured wiring used for algebraic path enumeration.
type fatTree struct {
	g    *Graph
	k    int
	half int
	// edges[pod][e], aggs[pod][a], cores[c], hosts[pod][e][h]
	edges [][]NodeID
	aggs  [][]NodeID
	cores []NodeID
	hostE []NodeID // host -> its edge switch
	hosts [][][]NodeID
}

// FatTree builds the k-ary fat-tree and its multi-path routing.
// Aggregation switch a (in-pod index) of every pod connects to core
// switches a*(k/2) .. (a+1)*(k/2)-1.
func FatTree(spec FatTreeSpec) (*Graph, Routing) {
	k := spec.K
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("topology: fat-tree k must be even and >= 2, got %d", k))
	}
	half := k / 2
	g := NewGraph()
	ft := &fatTree{g: g, k: k, half: half}
	ft.cores = make([]NodeID, half*half)
	for c := range ft.cores {
		ft.cores[c] = g.AddNode(Core, fmt.Sprintf("core%d", c), 3, -1)
	}
	ft.edges = make([][]NodeID, k)
	ft.aggs = make([][]NodeID, k)
	ft.hosts = make([][][]NodeID, k)
	ft.hostE = make([]NodeID, 0, k*half*half)
	for p := 0; p < k; p++ {
		ft.edges[p] = make([]NodeID, half)
		ft.aggs[p] = make([]NodeID, half)
		ft.hosts[p] = make([][]NodeID, half)
		for a := 0; a < half; a++ {
			ft.aggs[p][a] = g.AddNode(Agg, fmt.Sprintf("agg%d.%d", p, a), 2, p)
			for i := 0; i < half; i++ {
				g.AddDuplex(ft.aggs[p][a], ft.cores[a*half+i], spec.LinkCapacity)
			}
		}
		for e := 0; e < half; e++ {
			ft.edges[p][e] = g.AddNode(ToR, fmt.Sprintf("edge%d.%d", p, e), 1, p)
			for a := 0; a < half; a++ {
				g.AddDuplex(ft.edges[p][e], ft.aggs[p][a], spec.LinkCapacity)
			}
			ft.hosts[p][e] = make([]NodeID, half)
			for h := 0; h < half; h++ {
				host := g.AddNode(Host, fmt.Sprintf("h%d.%d.%d", p, e, h), 0, p)
				ft.hosts[p][e][h] = host
				g.AddDuplex(host, ft.edges[p][e], spec.LinkCapacity)
				for int(host) >= len(ft.hostE) {
					ft.hostE = append(ft.hostE, -1)
				}
				ft.hostE[host] = ft.edges[p][e]
			}
		}
	}
	return g, ft
}

// link panics if the wiring is inconsistent; it cannot fail on a graph this
// package built.
func (f *fatTree) link(a, b NodeID) LinkID {
	l, ok := f.g.LinkBetween(a, b)
	if !ok {
		panic(fmt.Sprintf("topology: missing fat-tree link %d->%d", a, b))
	}
	return l
}

// count is the number of paths Paths enumerates in full: one within an
// edge switch, one per aggregation switch within a pod, one per core
// switch between pods, none unless both ends are hosts.
func (f *fatTree) count(src, dst NodeID) int {
	switch srcN, dstN := f.g.Node(src), f.g.Node(dst); {
	case src == dst:
		return 1
	case srcN.Kind != Host || dstN.Kind != Host:
		return 0
	case f.hostE[src] == f.hostE[dst]:
		return 1
	case srcN.Pod == dstN.Pod:
		return f.half
	}
	return f.half * f.half
}

func (f *fatTree) Paths(src, dst NodeID, max int, key uint64) []Path {
	if src == dst {
		return []Path{nil}
	}
	srcN, dstN := f.g.Node(src), f.g.Node(dst)
	if srcN.Kind != Host || dstN.Kind != Host {
		return nil
	}
	e1, e2 := f.hostE[src], f.hostE[dst]
	up := f.link(src, e1)
	down := f.link(e2, dst)
	if e1 == e2 {
		return []Path{{up, down}}
	}
	p1, p2 := srcN.Pod, dstN.Pod
	if p1 == p2 {
		// One path per aggregation switch in the pod.
		total := f.half
		paths := make([]Path, 0, capPaths(total, max))
		for i := 0; i < total && (max <= 0 || len(paths) < max); i++ {
			a := int((key%uint64(total) + uint64(i)) % uint64(total))
			agg := f.aggs[p1][a]
			paths = append(paths, Path{up, f.link(e1, agg), f.link(agg, e2), down})
		}
		return paths
	}
	// Inter-pod: one path per core switch.
	total := f.half * f.half
	paths := make([]Path, 0, capPaths(total, max))
	for i := 0; i < total && (max <= 0 || len(paths) < max); i++ {
		c := int((key%uint64(total) + uint64(i)) % uint64(total))
		a := c / f.half
		core := f.cores[c]
		agg1, agg2 := f.aggs[p1][a], f.aggs[p2][a]
		paths = append(paths, Path{
			up,
			f.link(e1, agg1), f.link(agg1, core),
			f.link(core, agg2), f.link(agg2, e2),
			down,
		})
	}
	return paths
}

func capPaths(total, max int) int {
	if max > 0 && max < total {
		return max
	}
	return total
}

// PartialFatTreeSpec describes the 8-host testbed of §VI (Fig. 13): two
// pods, each with two edge and two aggregation switches, two core switches,
// and two hosts per edge switch.
type PartialFatTreeSpec struct {
	LinkCapacity float64
}

// PaperTestbed is the §VI testbed: 8 hosts, 1 Gbps links.
func PaperTestbed() PartialFatTreeSpec { return PartialFatTreeSpec{LinkCapacity: Gbps(1)} }

// PartialFatTree builds the testbed topology. Aggregation switch a of each
// pod connects to core switch a, so there are two disjoint inter-pod paths
// per host pair and two intra-pod paths.
func PartialFatTree(spec PartialFatTreeSpec) (*Graph, Routing) {
	g := NewGraph()
	cores := []NodeID{
		g.AddNode(Core, "core0", 3, -1),
		g.AddNode(Core, "core1", 3, -1),
	}
	for p := 0; p < 2; p++ {
		aggs := []NodeID{
			g.AddNode(Agg, fmt.Sprintf("agg%d.0", p), 2, p),
			g.AddNode(Agg, fmt.Sprintf("agg%d.1", p), 2, p),
		}
		g.AddDuplex(aggs[0], cores[0], spec.LinkCapacity)
		g.AddDuplex(aggs[1], cores[1], spec.LinkCapacity)
		for e := 0; e < 2; e++ {
			edge := g.AddNode(ToR, fmt.Sprintf("edge%d.%d", p, e), 1, p)
			g.AddDuplex(edge, aggs[0], spec.LinkCapacity)
			g.AddDuplex(edge, aggs[1], spec.LinkCapacity)
			for h := 0; h < 2; h++ {
				host := g.AddNode(Host, fmt.Sprintf("h%d.%d.%d", p, e, h), 0, p)
				g.AddDuplex(host, edge, spec.LinkCapacity)
			}
		}
	}
	return g, &bfsRouting{g: g}
}
