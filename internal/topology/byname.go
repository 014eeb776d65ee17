package topology

import "fmt"

// Sizes are the size parameters of a topology named on a command line
// (the -pods, -racks, -hosts, -k and -n flags of tapsctl, tapsload and
// tapstopo).
type Sizes struct {
	Pods, Racks, Hosts int // tree
	K                  int // fattree: k; bcube, ficonn: levels
	N                  int // bcube, ficonn: ports per switch
}

// DefaultSizes are the commands' flag defaults: a 4x4x10 tree, a k=4
// fat-tree, BCube/FiConn with n=4 and k=4.
func DefaultSizes() Sizes { return Sizes{Pods: 4, Racks: 4, Hosts: 10, K: 4, N: 4} }

// ByName builds the topology a -topo flag names — testbed (§VI, Fig. 13),
// tree, fattree, bcube or ficonn — with 1 Gbps links, sized by s. Routing
// of the multi-path topologies is cached.
func ByName(name string, s Sizes) (*Graph, Routing, error) {
	switch name {
	case "testbed":
		g, r := PartialFatTree(PaperTestbed())
		return g, r, nil
	case "tree":
		g, r := SingleRootedTree(SingleRootedTreeSpec{
			Pods: s.Pods, RacksPerPod: s.Racks, HostsPerRack: s.Hosts, LinkCapacity: Gbps(1),
		})
		return g, r, nil
	case "fattree":
		g, r := FatTree(FatTreeSpec{K: s.K, LinkCapacity: Gbps(1)})
		return g, NewCachedRouting(r), nil
	case "bcube":
		g, r := BCube(BCubeSpec{N: s.N, K: s.K, LinkCapacity: Gbps(1)})
		return g, NewCachedRouting(r), nil
	case "ficonn":
		g, r := FiConn(FiConnSpec{N: s.N, K: s.K, LinkCapacity: Gbps(1)})
		return g, NewCachedRouting(r), nil
	}
	return nil, nil, fmt.Errorf("unknown topology %q", name)
}
