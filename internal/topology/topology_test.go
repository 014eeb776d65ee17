package topology

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func smallTree() (*Graph, Routing) {
	return SingleRootedTree(SingleRootedTreeSpec{
		Pods: 3, RacksPerPod: 2, HostsPerRack: 4, LinkCapacity: Gbps(1),
	})
}

func TestGbps(t *testing.T) {
	if Gbps(1) != 125e6 {
		t.Fatalf("Gbps(1) = %v", Gbps(1))
	}
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Host, "a", 0, 0)
	b := g.AddNode(Host, "b", 0, 0)
	l1, l2 := g.AddDuplex(a, b, 100)
	if g.NumNodes() != 2 || g.NumLinks() != 2 {
		t.Fatalf("nodes=%d links=%d", g.NumNodes(), g.NumLinks())
	}
	if g.Link(l1).Src != a || g.Link(l1).Dst != b {
		t.Fatal("l1 direction wrong")
	}
	if g.Link(l2).Src != b || g.Link(l2).Dst != a {
		t.Fatal("l2 direction wrong")
	}
	if got, ok := g.LinkBetween(a, b); !ok || got != l1 {
		t.Fatal("LinkBetween(a,b)")
	}
	if _, ok := g.LinkBetween(a, a); ok {
		t.Fatal("no self link expected")
	}
	if len(g.Hosts()) != 2 {
		t.Fatal("Hosts")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Host: "host", ToR: "tor", Agg: "agg", Core: "core"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q want %q", k, k.String(), want)
		}
	}
}

func TestSingleRootedTreeCounts(t *testing.T) {
	g, _ := smallTree()
	// 1 core + 3 agg + 6 tor + 24 hosts
	if g.NumNodes() != 1+3+6+24 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// duplex links: 3 agg-core + 6 tor-agg + 24 host-tor = 33*2
	if g.NumLinks() != 66 {
		t.Fatalf("links = %d", g.NumLinks())
	}
	if len(g.Hosts()) != 24 {
		t.Fatalf("hosts = %d", len(g.Hosts()))
	}
}

func TestPaperSingleRootedTreeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g, _ := SingleRootedTree(PaperSingleRootedTree())
	if len(g.Hosts()) != 36000 {
		t.Fatalf("paper tree should have 36000 hosts, got %d", len(g.Hosts()))
	}
}

func TestTreeRoutingUniquePath(t *testing.T) {
	g, r := smallTree()
	hosts := g.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1] // different pods
	ps := r.Paths(src, dst, 0, 0)
	if len(ps) != 1 {
		t.Fatalf("tree must have exactly one path, got %d", len(ps))
	}
	p := ps[0]
	if !g.ValidPath(p, src, dst) {
		t.Fatalf("invalid path %v", p)
	}
	// host->tor->agg->core->agg->tor->host = 6 links
	if len(p) != 6 {
		t.Fatalf("cross-pod path length = %d, want 6", len(p))
	}
}

func TestTreeRoutingSameRack(t *testing.T) {
	g, r := smallTree()
	hosts := g.Hosts()
	ps := r.Paths(hosts[0], hosts[1], 0, 0)
	if len(ps) != 1 || len(ps[0]) != 2 {
		t.Fatalf("same-rack path should traverse 2 links, got %v", ps)
	}
	if !g.ValidPath(ps[0], hosts[0], hosts[1]) {
		t.Fatal("invalid path")
	}
}

func TestTreeRoutingSamePod(t *testing.T) {
	g, r := smallTree()
	hosts := g.Hosts()
	// hosts[0] is rack 0 of pod 0; hosts[4] is rack 1 of pod 0.
	ps := r.Paths(hosts[0], hosts[4], 0, 0)
	if len(ps) != 1 || len(ps[0]) != 4 {
		t.Fatalf("same-pod path should traverse 4 links, got %v", ps)
	}
}

func TestTreeRoutingSelf(t *testing.T) {
	g, r := smallTree()
	ps := r.Paths(g.Hosts()[3], g.Hosts()[3], 0, 0)
	if len(ps) != 1 || len(ps[0]) != 0 {
		t.Fatalf("self path should be empty, got %v", ps)
	}
}

func TestTreeRoutingMatchesBFS(t *testing.T) {
	g, r := smallTree()
	hosts := g.Hosts()
	for _, pair := range [][2]int{{0, 1}, {0, 5}, {2, 9}, {3, 23}, {8, 17}} {
		src, dst := hosts[pair[0]], hosts[pair[1]]
		tree := r.Paths(src, dst, 0, 0)
		bfs := ShortestPaths(g, src, dst, 0)
		if len(tree) != 1 || len(bfs) != 1 {
			t.Fatalf("pair %v: tree=%d bfs=%d paths", pair, len(tree), len(bfs))
		}
		if fmt.Sprint(tree[0]) != fmt.Sprint(bfs[0]) {
			t.Fatalf("pair %v: tree path %v != bfs path %v", pair, tree[0], bfs[0])
		}
	}
}

func TestFatTreeCounts(t *testing.T) {
	spec := FatTreeSpec{K: 4, LinkCapacity: Gbps(1)}
	g, _ := FatTree(spec)
	// k=4: 16 hosts, 8 edge, 8 agg, 4 core
	if len(g.Hosts()) != 16 {
		t.Fatalf("hosts = %d", len(g.Hosts()))
	}
	if g.NumNodes() != 16+8+8+4 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// duplex: host-edge 16, edge-agg 8*2=16, agg-core 8*2=16 -> 48*2=96
	if g.NumLinks() != 96 {
		t.Fatalf("links = %d", g.NumLinks())
	}
}

func TestFatTreeOddKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd k")
		}
	}()
	FatTree(FatTreeSpec{K: 3, LinkCapacity: 1})
}

func TestFatTreePathCounts(t *testing.T) {
	g, r := FatTree(FatTreeSpec{K: 4, LinkCapacity: Gbps(1)})
	hosts := g.Hosts()
	// Same edge: hosts 0,1 -> 1 path, 2 links.
	ps := r.Paths(hosts[0], hosts[1], 0, 0)
	if len(ps) != 1 || len(ps[0]) != 2 {
		t.Fatalf("same-edge: %v", ps)
	}
	// Same pod different edge: hosts 0,2 -> k/2 = 2 paths of 4 links.
	ps = r.Paths(hosts[0], hosts[2], 0, 0)
	if len(ps) != 2 {
		t.Fatalf("same-pod paths = %d", len(ps))
	}
	for _, p := range ps {
		if len(p) != 4 || !g.ValidPath(p, hosts[0], hosts[2]) {
			t.Fatalf("bad same-pod path %v", p)
		}
	}
	// Inter-pod: hosts 0, 4 -> (k/2)^2 = 4 paths of 6 links.
	ps = r.Paths(hosts[0], hosts[4], 0, 0)
	if len(ps) != 4 {
		t.Fatalf("inter-pod paths = %d", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if len(p) != 6 || !g.ValidPath(p, hosts[0], hosts[4]) {
			t.Fatalf("bad inter-pod path %v", p)
		}
		seen[fmt.Sprint(p)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("inter-pod paths not distinct: %d unique", len(seen))
	}
}

func TestFatTreePathsMatchBFS(t *testing.T) {
	g, r := FatTree(FatTreeSpec{K: 4, LinkCapacity: Gbps(1)})
	hosts := g.Hosts()
	for _, pair := range [][2]int{{0, 1}, {0, 3}, {0, 4}, {5, 12}, {15, 0}} {
		src, dst := hosts[pair[0]], hosts[pair[1]]
		structured := r.Paths(src, dst, 0, 0)
		bfs := ShortestPaths(g, src, dst, 0)
		if len(structured) != len(bfs) {
			t.Fatalf("pair %v: structured=%d bfs=%d", pair, len(structured), len(bfs))
		}
		want := map[string]bool{}
		for _, p := range bfs {
			want[fmt.Sprint(p)] = true
		}
		for _, p := range structured {
			if !want[fmt.Sprint(p)] {
				t.Fatalf("pair %v: structured path %v not found by BFS", pair, p)
			}
		}
	}
}

func TestFatTreeMaxAndRotation(t *testing.T) {
	g, r := FatTree(FatTreeSpec{K: 8, LinkCapacity: Gbps(1)})
	hosts := g.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	all := r.Paths(src, dst, 0, 0)
	if len(all) != 16 {
		t.Fatalf("k=8 inter-pod should have 16 paths, got %d", len(all))
	}
	capped := r.Paths(src, dst, 4, 0)
	if len(capped) != 4 {
		t.Fatalf("max=4 returned %d", len(capped))
	}
	rotated := r.Paths(src, dst, 4, 7)
	if fmt.Sprint(capped[0]) == fmt.Sprint(rotated[0]) {
		t.Fatal("rotation by key should change the first candidate")
	}
	for _, p := range rotated {
		if !g.ValidPath(p, src, dst) {
			t.Fatalf("rotated path invalid: %v", p)
		}
	}
}

func TestECMPDeterministicAndDiverse(t *testing.T) {
	g, r := FatTree(FatTreeSpec{K: 4, LinkCapacity: Gbps(1)})
	hosts := g.Hosts()
	src, dst := hosts[0], hosts[8]
	a := ECMP(r, src, dst, 42)
	b := ECMP(r, src, dst, 42)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("ECMP must be deterministic per key")
	}
	distinct := map[string]bool{}
	for key := uint64(0); key < 16; key++ {
		distinct[fmt.Sprint(ECMP(r, src, dst, key))] = true
	}
	if len(distinct) < 2 {
		t.Fatal("ECMP should spread flows over multiple paths")
	}
}

func TestPartialFatTree(t *testing.T) {
	g, r := PartialFatTree(PaperTestbed())
	if len(g.Hosts()) != 8 {
		t.Fatalf("testbed must have 8 hosts, got %d", len(g.Hosts()))
	}
	hosts := g.Hosts()
	// Inter-pod pair must have 2 disjoint core paths.
	ps := r.Paths(hosts[0], hosts[7], 0, 0)
	if len(ps) != 2 {
		t.Fatalf("inter-pod testbed paths = %d, want 2", len(ps))
	}
	for _, p := range ps {
		if !g.ValidPath(p, hosts[0], hosts[7]) {
			t.Fatalf("invalid testbed path %v", p)
		}
	}
	// The two paths must be link-disjoint above the edge layer.
	shared := map[LinkID]int{}
	for _, p := range ps {
		for _, l := range p {
			shared[l]++
		}
	}
	dup := 0
	for _, n := range shared {
		if n > 1 {
			dup++
		}
	}
	// Only the first and last hop (host-edge links) may be shared.
	if dup != 2 {
		t.Fatalf("expected exactly the 2 host links shared, got %d shared links", dup)
	}
}

func TestShortestPathsMaxCap(t *testing.T) {
	g, _ := FatTree(FatTreeSpec{K: 4, LinkCapacity: Gbps(1)})
	hosts := g.Hosts()
	ps := ShortestPaths(g, hosts[0], hosts[4], 2)
	if len(ps) != 2 {
		t.Fatalf("max=2 returned %d", len(ps))
	}
}

func TestShortestPathsUnreachable(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Host, "a", 0, 0)
	b := g.AddNode(Host, "b", 0, 0)
	if ps := ShortestPaths(g, a, b, 0); ps != nil {
		t.Fatalf("unreachable should return nil, got %v", ps)
	}
}

func TestPathNodes(t *testing.T) {
	g, r := smallTree()
	hosts := g.Hosts()
	p := r.Paths(hosts[0], hosts[23], 0, 0)[0]
	nodes := g.PathNodes(p)
	if len(nodes) != len(p)+1 {
		t.Fatalf("PathNodes length %d", len(nodes))
	}
	if nodes[0] != hosts[0] || nodes[len(nodes)-1] != hosts[23] {
		t.Fatal("PathNodes endpoints wrong")
	}
	if g.PathNodes(nil) != nil {
		t.Fatal("empty path should give nil nodes")
	}
}

func TestMinCapacity(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Host, "a", 0, 0)
	b := g.AddNode(ToR, "b", 1, 0)
	c := g.AddNode(Host, "c", 0, 0)
	l1 := g.AddLink(a, b, 100)
	l2 := g.AddLink(b, c, 50)
	if got := g.MinCapacity(Path{l1, l2}); got != 50 {
		t.Fatalf("MinCapacity = %v", got)
	}
	if g.MinCapacity(nil) != 0 {
		t.Fatal("empty path capacity should be 0")
	}
}

func TestCachedRouting(t *testing.T) {
	g, r := FatTree(FatTreeSpec{K: 4, LinkCapacity: Gbps(1)})
	cr := NewCachedRouting(r)
	hosts := g.Hosts()
	a := cr.Paths(hosts[0], hosts[8], 0, 0)
	b := cr.Paths(hosts[0], hosts[8], 0, 0)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("cached results differ")
	}
	if len(a) != 4 {
		t.Fatalf("paths = %d", len(a))
	}
}

// TestCachedRoutingMatchesInner: over every kind of routing this package
// builds, the memo — which keys on key mod n — answers exactly what the
// routing it wraps answers for the full key, including keys at the top of
// the uint64 range, where key + i would wrap.
func TestCachedRoutingMatchesInner(t *testing.T) {
	tree, treeR := smallTree()
	ft4, ft4R := FatTree(FatTreeSpec{K: 4, LinkCapacity: Gbps(1)})
	ft6, ft6R := FatTree(FatTreeSpec{K: 6, LinkCapacity: Gbps(1)})
	bc, bcR := BCube(BCubeSpec{N: 3, K: 2, LinkCapacity: Gbps(1)})
	pft, pftR := PartialFatTree(PaperTestbed())
	fc, _ := FiConn(FiConnSpec{N: 4, K: 1, LinkCapacity: Gbps(1)})
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct {
		name string
		g    *Graph
		r    Routing
	}{
		{"tree", tree, treeR}, {"fattree4", ft4, ft4R}, {"fattree6", ft6, ft6R},
		{"bcube", bc, bcR}, {"bfs-testbed", pft, pftR}, {"bfs-ficonn", fc, NewBFSRouting(fc)},
	} {
		cr := NewCachedRouting(c.r)
		hosts := c.g.Hosts()
		for round := 0; round < 400; round++ {
			src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
			max := rng.Intn(6)
			key := rng.Uint64()
			switch round % 4 {
			case 0:
				key = math.MaxUint64 - uint64(rng.Intn(70))
			case 1:
				key = uint64(rng.Intn(100))
			}
			want, got := c.r.Paths(src, dst, max, key), cr.Paths(src, dst, max, key)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: Paths(%d, %d, %d, %d): memo %v, routing %v", c.name, src, dst, max, key, got, want)
			}
			if ct, ok := c.r.(counter); ok {
				if got, want := ct.count(src, dst), len(c.r.Paths(src, dst, 0, 0)); got != want {
					t.Fatalf("%s: count(%d, %d) = %d, Paths enumerates %d", c.name, src, dst, got, want)
				}
			}
		}
	}
}

// TestCachedRoutingBoundedByCandidates: however many flow keys ask for one
// pair, the memo holds no more candidate sets than the pair has candidates.
func TestCachedRoutingBoundedByCandidates(t *testing.T) {
	g, r := FatTree(FatTreeSpec{K: 8, LinkCapacity: Gbps(1)})
	cr := NewCachedRouting(r).(*cachedRouting)
	hosts := g.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	n := len(r.Paths(src, dst, 0, 0))
	for key := uint64(0); key < 10_000; key++ {
		cr.Paths(src, dst, 4, key*7919)
	}
	if entries := len(cr.cache); n != 16 || entries > n {
		t.Fatalf("%d memo entries for one pair with %d candidates, want at most %d", entries, n, n)
	}
}

func TestPropFatTreePathsAlwaysValid(t *testing.T) {
	g, r := FatTree(FatTreeSpec{K: 4, LinkCapacity: Gbps(1)})
	hosts := g.Hosts()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		max := rng.Intn(5)
		key := rng.Uint64()
		for _, p := range r.Paths(src, dst, max, key) {
			if !g.ValidPath(p, src, dst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropTreePathsAlwaysValid(t *testing.T) {
	g, r := smallTree()
	hosts := g.Hosts()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		ps := r.Paths(src, dst, 0, rng.Uint64())
		if len(ps) != 1 {
			return false
		}
		return g.ValidPath(ps[0], src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDOTExport(t *testing.T) {
	g, _ := smallTree()
	out := DOT(g)
	if !strings.HasPrefix(out, "graph taps {") || !strings.HasSuffix(out, "}\n") {
		t.Fatalf("malformed DOT:\n%s", out[:60])
	}
	// One undirected edge per duplex pair: 33 cables in the small tree.
	if got := strings.Count(out, " -- "); got != 33 {
		t.Fatalf("edges = %d, want 33", got)
	}
	if !strings.Contains(out, `"h0.0.0"`) || !strings.Contains(out, `"core"`) {
		t.Fatal("node labels missing")
	}
}
