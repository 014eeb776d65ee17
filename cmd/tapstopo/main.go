// Command tapstopo inspects the topologies used in the evaluation: node
// and link counts, oversubscription, and sample equal-cost path sets.
//
// Usage:
//
//	tapstopo -topo tree -pods 30 -racks 30 -hosts 40
//	tapstopo -topo fattree -k 8
//	tapstopo -topo testbed
package main

import (
	"flag"
	"fmt"
	"os"

	"taps/internal/topology"
)

func main() {
	sizes := topology.DefaultSizes()
	flag.IntVar(&sizes.Pods, "pods", sizes.Pods, topology.SizeUsage("pods"))
	flag.IntVar(&sizes.Racks, "racks", sizes.Racks, topology.SizeUsage("racks"))
	flag.IntVar(&sizes.Hosts, "hosts", sizes.Hosts, topology.SizeUsage("hosts"))
	flag.IntVar(&sizes.K, "k", sizes.K, topology.SizeUsage("k"))
	flag.IntVar(&sizes.N, "n", sizes.N, topology.SizeUsage("n"))
	var (
		topoFlag = flag.String("topo", "tree", topology.TopoUsage())
		paths    = flag.Int("paths", 4, "sample paths to print per pair")
		dotFlag  = flag.Bool("dot", false, "emit Graphviz DOT instead of the summary")
	)
	flag.Parse()

	g, r, err := topology.ByName(*topoFlag, sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tapstopo:", err)
		os.Exit(1)
	}

	if *dotFlag {
		fmt.Print(topology.DOT(g))
		return
	}

	counts := map[topology.Kind]int{}
	for i := 0; i < g.NumNodes(); i++ {
		counts[g.Node(topology.NodeID(i)).Kind]++
	}
	fmt.Printf("topology: %s\n", *topoFlag)
	fmt.Printf("nodes: %d (hosts=%d tor=%d agg=%d core=%d)\n",
		g.NumNodes(), counts[topology.Host], counts[topology.ToR],
		counts[topology.Agg], counts[topology.Core])
	fmt.Printf("directed links: %d, all %g Gbps\n", g.NumLinks(),
		g.Link(0).Capacity*8/1e9)

	hs := g.Hosts()
	if len(hs) < 2 {
		return
	}
	pairs := [][2]topology.NodeID{
		{hs[0], hs[1]},
		{hs[0], hs[len(hs)/2]},
		{hs[0], hs[len(hs)-1]},
	}
	for _, pair := range pairs {
		ps := r.Paths(pair[0], pair[1], 0, 0)
		fmt.Printf("\n%s -> %s: %d equal-cost path(s)\n",
			g.Node(pair[0]).Name, g.Node(pair[1]).Name, len(ps))
		for i, p := range ps {
			if i >= *paths {
				fmt.Printf("  ... and %d more\n", len(ps)-*paths)
				break
			}
			fmt.Print("  ")
			for j, n := range g.PathNodes(p) {
				if j > 0 {
					fmt.Print(" -> ")
				}
				fmt.Print(g.Node(n).Name)
			}
			fmt.Println()
		}
	}
}
