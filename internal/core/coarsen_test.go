package core

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
)

func TestClusterBound(t *testing.T) {
	cases := []struct {
		name  string
		lmax  int64
		f     float64
		maxNW int64
		want  int64
	}{
		// rgg/web n=2^17, k=16, eps=0.03: Lmax = 8437.
		{"social f=14 unchanged", 8437, 14, 1, 602},
		// Paper-scale mesh: n=2^24, k=16 gives Lmax = 1080033 and a
		// non-degenerate Lmax/20000 = 54.
		{"paper-scale mesh unchanged", 1080033, 20000, 1, 54},
		{"rgg-mesh falls back", 8437, 20000, 1, 8437 / meshFallbackFactor},
		{"degenerate at equality falls back", 40000, 20000, 2, 40000 / meshFallbackFactor},
		{"heavy node floors social", 8437, 14, 900, 900},
		{"heavy node floors fallback", 8437, 20000, 500, 500},
		{"later cycle f=10 unchanged", 8437, 10, 1, 843},
		{"later cycle f=17 unchanged", 8437, 17, 1, 496},
		{"later cycle f=25 unchanged", 8437, 25, 1, 337},
		// A degenerate later-cycle f <= meshFallbackFactor stays at maxNW,
		// exactly as before the fallback existed.
		{"later cycle heavy node unchanged", 8437, 25, 400, 400},
	}
	for _, tc := range cases {
		got := clusterBound(tc.lmax, tc.f, tc.maxNW)
		if got != tc.want {
			t.Errorf("%s: clusterBound(%d, %g, %d) = %d, want %d",
				tc.name, tc.lmax, tc.f, tc.maxNW, got, tc.want)
		}
		if got < tc.maxNW {
			t.Errorf("%s: bound %d below the heaviest node %d", tc.name, got, tc.maxNW)
		}
	}
}

// TestMeshCoarsensInFirstCycle: at mesh class the paper's f = 20000 gives
// a degenerate bound on a graph this small, so coarsening used to stop at
// the input. With the fallback the first V-cycle builds a hierarchy.
func TestMeshCoarsensInFirstCycle(t *testing.T) {
	g := gen.RGG(32768, 1)
	res, err := Run(2, g, FastConfig(16, ClassMesh))
	if err != nil {
		t.Fatal(err)
	}
	if lv := res.Stats.Levels; len(lv) < 2 {
		t.Errorf("levels %v: want >= 2 in the first V-cycle", lv)
	}
	if s := res.Stats.CoarsenStalls; s != 0 {
		t.Errorf("CoarsenStalls = %d, want 0", s)
	}
	if rep := partition.Evaluate(g, res.Part, 16, 0.03); !rep.Feasible || !res.Stats.Feasible {
		t.Errorf("infeasible: %v", rep)
	}
}

// TestEdgelessGraphStallReported: an edgeless graph cannot coarsen at all;
// the stall must be counted and marked on the coarsen_level span, and the
// run must still return a feasible partition.
func TestEdgelessGraphStallReported(t *testing.T) {
	g := graph.NewBuilder(2000).Build()
	cfg := FastConfig(2, ClassSocial)
	cfg.Tracer = obs.NewTracer(2)
	res, err := Run(2, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Stats.CoarsenStalls; s < 1 {
		t.Errorf("CoarsenStalls = %d, want >= 1", s)
	}
	if rep := partition.Evaluate(g, res.Part, 2, 0.03); !rep.Feasible || !res.Stats.Feasible {
		t.Errorf("infeasible: %v", rep)
	}
	var sb strings.Builder
	if err := cfg.Tracer.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"name":"core.coarsen_level"`) ||
		!strings.Contains(sb.String(), `"stalled":1}`) {
		t.Errorf("no core.coarsen_level span with stalled=1 in the trace")
	}
}
