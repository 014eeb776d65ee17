package topology

import (
	"fmt"
	"strings"
)

// Sizes are the size parameters of a topology named on a command line
// (the -pods, -racks, -hosts, -k and -n flags of tapsctl, tapsload and
// tapstopo). SizeUsage says which topologies read each one, and how.
type Sizes struct {
	Pods, Racks, Hosts int
	K                  int
	N                  int
}

// DefaultSizes are the commands' flag defaults: a 4x4x10 tree, a k=4
// fat-tree, BCube with n=4 and k=4.
func DefaultSizes() Sizes { return Sizes{Pods: 4, Racks: 4, Hosts: 10, K: 4, N: 4} }

// sizeUse is one size flag a topology reads, with its meaning there.
type sizeUse struct{ flag, meaning string }

// topologies is every topology a -topo flag can name, in help-text order,
// with the size flags it reads and its builder (1 Gbps links; routing of
// the multi-path topologies is cached).
var topologies = []struct {
	name  string
	sizes []sizeUse
	build func(Sizes) (*Graph, Routing)
}{
	{"testbed", nil, func(Sizes) (*Graph, Routing) { return PartialFatTree(PaperTestbed()) }},
	{"tree", []sizeUse{{"pods", "pods"}, {"racks", "racks per pod"}, {"hosts", "hosts per rack"}},
		func(s Sizes) (*Graph, Routing) {
			return SingleRootedTree(SingleRootedTreeSpec{
				Pods: s.Pods, RacksPerPod: s.Racks, HostsPerRack: s.Hosts, LinkCapacity: Gbps(1),
			})
		}},
	{"fattree", []sizeUse{{"k", "k"}},
		func(s Sizes) (*Graph, Routing) {
			g, r := FatTree(FatTreeSpec{K: s.K, LinkCapacity: Gbps(1)})
			return g, NewCachedRouting(r)
		}},
	{"bcube", []sizeUse{{"n", "ports per switch"}, {"k", "levels"}},
		func(s Sizes) (*Graph, Routing) {
			g, r := BCube(BCubeSpec{N: s.N, K: s.K, LinkCapacity: Gbps(1)})
			return g, NewCachedRouting(r)
		}},
}

// Names lists the topologies ByName builds: testbed (§VI, Fig. 13), tree,
// fattree and bcube.
func Names() []string {
	names := make([]string, len(topologies))
	for i, t := range topologies {
		names[i] = t.name
	}
	return names
}

// TopoUsage is the help text of a -topo flag.
func TopoUsage() string { return "topology: " + strings.Join(Names(), ", ") }

// SizeUsage is the help text of the size flag named flag ("k", "n", ...):
// each topology that reads it, with what it means there.
func SizeUsage(flag string) string {
	var uses []string
	for _, t := range topologies {
		for _, u := range t.sizes {
			if u.flag == flag {
				uses = append(uses, t.name+": "+u.meaning)
			}
		}
	}
	return strings.Join(uses, " / ")
}

// ByName builds the topology a -topo flag names, one of Names, sized by s.
// An unknown name is an error that lists the known ones.
func ByName(name string, s Sizes) (*Graph, Routing, error) {
	for _, t := range topologies {
		if t.name == name {
			g, r := t.build(s)
			return g, r, nil
		}
	}
	return nil, nil, fmt.Errorf("unknown topology %q (known: %s)", name, strings.Join(Names(), ", "))
}
