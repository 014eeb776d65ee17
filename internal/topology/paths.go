package topology

import "sort"

// Routing enumerates candidate routing paths between two hosts.
//
// Paths returns up to max equal-cost shortest paths from src to dst (all of
// them when max <= 0). Implementations rotate or offset the enumeration by
// key so that different flows between the same pair see a diverse candidate
// set; the same (src, dst, max, key) always yields the same paths. The
// routings this package builds rotate by key mod n, n the pair's full
// candidate count, which is what NewCachedRouting relies on.
type Routing interface {
	Paths(src, dst NodeID, max int, key uint64) []Path
}

// ECMP selects one equal-cost path by flow key, emulating per-flow ECMP
// hashing (used to extend the single-path baselines to multi-rooted
// topologies, §V-A).
func ECMP(r Routing, src, dst NodeID, key uint64) Path {
	ps := r.Paths(src, dst, 1, key)
	if len(ps) == 0 {
		return nil
	}
	return ps[0]
}

// bfsRouting enumerates shortest paths on an arbitrary graph with BFS; it
// is the fallback for topologies without structured routing (e.g. the
// testbed partial fat-tree) and the reference implementation the structured
// routers are tested against.
type bfsRouting struct {
	g *Graph
}

// NewBFSRouting returns a Routing that enumerates all shortest paths by
// breadth-first search. It is O(V+E) per distinct source and intended for
// small graphs and tests.
func NewBFSRouting(g *Graph) Routing { return &bfsRouting{g: g} }

func (b *bfsRouting) Paths(src, dst NodeID, max int, key uint64) []Path {
	all := ShortestPaths(b.g, src, dst, 0)
	if len(all) == 0 {
		return nil
	}
	if max <= 0 || max >= len(all) {
		// Full set, canonical order.
		return all
	}
	n := uint64(len(all))
	out := make([]Path, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, all[(key%n+uint64(i))%n])
	}
	return out
}

// ShortestPaths enumerates the shortest directed paths from src to dst in
// canonical (link-ID lexicographic) order, up to max paths (all if max<=0).
func ShortestPaths(g *Graph, src, dst NodeID, max int) []Path {
	if src == dst {
		return []Path{nil}
	}
	const unreached = -1
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = unreached
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == dst {
			continue // don't expand beyond the destination
		}
		for _, l := range g.Out(n) {
			m := g.Link(l).Dst
			if dist[m] == unreached {
				dist[m] = dist[n] + 1
				queue = append(queue, m)
			}
		}
	}
	if dist[dst] == unreached {
		return nil
	}
	// DFS over the BFS level DAG collecting paths.
	var out []Path
	var cur Path
	var dfs func(n NodeID) bool
	dfs = func(n NodeID) bool {
		if n == dst {
			p := make(Path, len(cur))
			copy(p, cur)
			out = append(out, p)
			return max > 0 && len(out) >= max
		}
		links := append([]LinkID(nil), g.Out(n)...)
		sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
		for _, l := range links {
			m := g.Link(l).Dst
			if dist[m] != dist[n]+1 || dist[m] > dist[dst] {
				continue
			}
			cur = append(cur, l)
			stop := dfs(m)
			cur = cur[:len(cur)-1]
			if stop {
				return true
			}
		}
		return false
	}
	dfs(src)
	return out
}

// cachedRouting memoizes Paths calls. TAPS re-plans all in-flight flows on
// every task arrival, so the same (src, dst) pairs are queried repeatedly.
//
// Every routing in this package rotates a pair's candidates by key mod n,
// where n is the pair's full candidate count (len(Paths(src, dst, 0, 0))),
// so Paths(src, dst, max, key) equals Paths(src, dst, max, key mod n). The
// memo keys on that residue: a pair holds at most n candidate sets per max,
// however many flows are ever routed over it.
type cachedRouting struct {
	inner Routing
	cache map[cacheKey][]Path
	// counter is inner's own candidate count, when it has one that needs
	// no enumeration; otherwise the count of each pair is memoized here.
	counter counter
	counts  map[[2]NodeID]int
}

type cacheKey struct {
	src, dst NodeID
	max      int
	key      uint64 // mod the pair's candidate count
}

// counter is implemented by the routings of this package that can count a
// pair's candidates without enumerating them.
type counter interface {
	count(src, dst NodeID) int
}

// NewCachedRouting wraps a Routing with a memo table that grows with the
// (src, dst) pairs asked for, not with the flow keys. inner must rotate by
// key mod n as this package's routings do. Not safe for concurrent use: a
// cache belongs to one goroutine at a time (one simulation, one controller
// under its lock, one experiments worker). The routings this package builds
// keep no state of their own, so any number of caches may wrap the same
// inner Routing concurrently.
func NewCachedRouting(inner Routing) Routing {
	c := &cachedRouting{inner: inner, cache: make(map[cacheKey][]Path)}
	if ct, ok := inner.(counter); ok {
		c.counter = ct
	} else {
		c.counts = make(map[[2]NodeID]int)
	}
	return c
}

func (c *cachedRouting) Paths(src, dst NodeID, max int, key uint64) []Path {
	if n := c.count(src, dst); n > 0 {
		key %= uint64(n)
	} else {
		key = 0
	}
	k := cacheKey{src, dst, max, key}
	if ps, ok := c.cache[k]; ok {
		return ps
	}
	ps := c.inner.Paths(src, dst, max, key)
	c.cache[k] = ps
	return ps
}

// count is the pair's full candidate count.
func (c *cachedRouting) count(src, dst NodeID) int {
	if c.counter != nil {
		return c.counter.count(src, dst)
	}
	pair := [2]NodeID{src, dst}
	n, ok := c.counts[pair]
	if !ok {
		n = len(c.inner.Paths(src, dst, 0, 0))
		c.counts[pair] = n
	}
	return n
}
