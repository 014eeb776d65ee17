package topology

import "fmt"

// BCubeSpec describes a BCube(n, k) (Guo et al., SIGCOMM'09), one of the
// multi-rooted, server-centric architectures the paper cites (§II) when
// arguing that TAPS must run on general data center topologies. A
// BCube(n,k) has n^(k+1) servers with k+1 ports each; level-i switches
// (n^k per level, i = 0..k) connect the n servers whose addresses differ
// only in digit i. Intermediate servers forward traffic, so routing paths
// alternate server -> switch -> server.
type BCubeSpec struct {
	N            int // switch port count / digits base
	K            int // levels - 1
	LinkCapacity float64
}

// bcube carries the structured wiring for algebraic path enumeration.
type bcube struct {
	g        *Graph
	n, k     int
	servers  []NodeID // index = address value (base-n digits a_k..a_0)
	switches [][]NodeID
}

// BCube builds the BCube(n, k) graph and its multi-path routing.
func BCube(spec BCubeSpec) (*Graph, Routing) {
	n, k := spec.N, spec.K
	if n < 2 || k < 0 {
		panic(fmt.Sprintf("topology: BCube needs n >= 2, k >= 0; got n=%d k=%d", n, k))
	}
	g := NewGraph()
	b := &bcube{g: g, n: n, k: k}
	nServers := pow(n, k+1)
	nSwPerLevel := pow(n, k)
	b.servers = make([]NodeID, nServers)
	for a := 0; a < nServers; a++ {
		b.servers[a] = g.AddNode(Host, fmt.Sprintf("srv%s", b.digits(a)), 0, -1)
	}
	b.switches = make([][]NodeID, k+1)
	for lvl := 0; lvl <= k; lvl++ {
		b.switches[lvl] = make([]NodeID, nSwPerLevel)
		for s := 0; s < nSwPerLevel; s++ {
			sw := g.AddNode(ToR, fmt.Sprintf("sw%d.%d", lvl, s), lvl+1, -1)
			b.switches[lvl][s] = sw
		}
	}
	for a := 0; a < nServers; a++ {
		for lvl := 0; lvl <= k; lvl++ {
			g.AddDuplex(b.servers[a], b.switchFor(a, lvl), spec.LinkCapacity)
		}
	}
	return g, b
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// digits renders an address as its base-n digit string a_k..a_0.
func (b *bcube) digits(addr int) string {
	ds := make([]byte, b.k+1)
	for i := b.k; i >= 0; i-- {
		ds[b.k-i] = byte('0' + b.digit(addr, i))
	}
	return string(ds)
}

// digit extracts digit i (0 = least significant) of the address.
func (b *bcube) digit(addr, i int) int { return addr / pow(b.n, i) % b.n }

// setDigit returns addr with digit i replaced by v.
func (b *bcube) setDigit(addr, i, v int) int {
	return addr + (v-b.digit(addr, i))*pow(b.n, i)
}

// switchFor returns the level-lvl switch of the given server address: the
// switch index is the address with digit lvl removed.
func (b *bcube) switchFor(addr, lvl int) NodeID {
	lo := addr % pow(b.n, lvl)
	hi := addr / pow(b.n, lvl+1)
	return b.switches[lvl][hi*pow(b.n, lvl)+lo]
}

// addrOf maps a server NodeID back to its address.
func (b *bcube) addrOf(id NodeID) (int, bool) {
	if int(id) < len(b.servers) && b.servers[id] == id {
		return int(id), true
	}
	for a, s := range b.servers {
		if s == id {
			return a, true
		}
	}
	return 0, false
}

// count is the number of differing address digits: Paths enumerates one
// path per rotation of them.
func (b *bcube) count(src, dst NodeID) int {
	if src == dst {
		return 1
	}
	sa, ok1 := b.addrOf(src)
	da, ok2 := b.addrOf(dst)
	if !ok1 || !ok2 {
		return 0
	}
	n := 0
	for i := 0; i <= b.k; i++ {
		if b.digit(sa, i) != b.digit(da, i) {
			n++
		}
	}
	return n
}

// Paths enumerates BCubeRouting paths: for each rotation of the sequence
// of differing digits, correct one digit per hop through the level's
// switch. Rotations yield up to |differing digits| internally disjoint
// paths; key rotates which correction order comes first.
func (b *bcube) Paths(src, dst NodeID, max int, key uint64) []Path {
	if src == dst {
		return []Path{nil}
	}
	sa, ok1 := b.addrOf(src)
	da, ok2 := b.addrOf(dst)
	if !ok1 || !ok2 {
		return nil
	}
	var diff []int
	for i := 0; i <= b.k; i++ {
		if b.digit(sa, i) != b.digit(da, i) {
			diff = append(diff, i)
		}
	}
	total := len(diff)
	paths := make([]Path, 0, capPaths(total, max))
	for r := 0; r < total && (max <= 0 || len(paths) < max); r++ {
		rot := int((key%uint64(total) + uint64(r)) % uint64(total))
		var p Path
		cur := sa
		ok := true
		for step := 0; step < total; step++ {
			d := diff[(rot+step)%total]
			next := b.setDigit(cur, d, b.digit(da, d))
			sw := b.switchFor(cur, d)
			l1, ok1 := b.g.LinkBetween(b.servers[cur], sw)
			l2, ok2 := b.g.LinkBetween(sw, b.servers[next])
			if !ok1 || !ok2 {
				ok = false
				break
			}
			p = append(p, l1, l2)
			cur = next
		}
		if ok {
			paths = append(paths, p)
		}
	}
	return paths
}
