package topology

import (
	"strings"
	"testing"
)

// TestByName builds every topology a -topo flag can name and rejects an
// unknown one.
func TestByName(t *testing.T) {
	sizes := Sizes{Pods: 2, Racks: 3, Hosts: 4, K: 1, N: 4}
	cases := []struct {
		name  string
		sizes Sizes
		hosts int
	}{
		{"testbed", sizes, 8},
		{"tree", sizes, 2 * 3 * 4},
		{"fattree", Sizes{K: 4}, 16}, // k^3/4
		{"bcube", sizes, 4 * 4},      // n^(k+1)
	}
	for _, c := range cases {
		g, r, err := ByName(c.name, c.sizes)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(g.Hosts()) != c.hosts {
			t.Errorf("%s: hosts = %d, want %d", c.name, len(g.Hosts()), c.hosts)
		}
		hs := g.Hosts()
		if p := ECMP(r, hs[0], hs[len(hs)-1], 0); !g.ValidPath(p, hs[0], hs[len(hs)-1]) {
			t.Errorf("%s: routing gave invalid path %v", c.name, p)
		}
		names := g.LinkNames()
		if len(names) != g.NumLinks() || names[len(names)-1] != g.Link(LinkID(len(names)-1)).Name {
			t.Errorf("%s: LinkNames = %d names for %d links", c.name, len(names), g.NumLinks())
		}
	}
	if len(cases) != len(Names()) {
		t.Errorf("cases cover %d topologies, Names lists %v", len(cases), Names())
	}
	for _, name := range []string{"nope", "ficonn"} {
		_, _, err := ByName(name, DefaultSizes())
		if err == nil || !strings.Contains(err.Error(), strings.Join(Names(), ", ")) {
			t.Errorf("ByName(%q): err = %v, want an error listing %v", name, err, Names())
		}
	}
	if got, want := SizeUsage("k"), "fattree: k / bcube: levels"; got != want {
		t.Errorf("SizeUsage(k) = %q, want %q", got, want)
	}
}
