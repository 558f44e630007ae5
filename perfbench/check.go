package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro"
)

// epsPercent is the imbalance every workload partitions with (eps=0.03).
const epsPercent = 3

// checked is what the benchmark recomputed from a returned assignment.
type checked struct {
	cut      int64
	maxBlock int64
	lmax     int64
	checksum string
}

// checkPartition validates part as a k-way partition of g and recomputes
// its cut, block weights and checksum from the graph alone. It fails when
// the assignment has the wrong length, a block outside [0,k), a block
// heavier than Lmax = floor((1+eps)*ceil(c(V)/k)), or when the cut the
// program reported differs from the recomputed one.
func checkPartition(g *parhip.Graph, part []int32, k int32, reportedCut int64) (checked, error) {
	n := g.NumNodes()
	if int32(len(part)) != n {
		return checked{}, fmt.Errorf("assignment has %d entries for %d nodes", len(part), n)
	}
	weights := make([]int64, k)
	var total int64
	for v, b := range part {
		if b < 0 || b >= k {
			return checked{}, fmt.Errorf("node %d in block %d outside [0,%d)", v, b, k)
		}
		w := g.NW[v]
		weights[b] += w
		total += w
	}
	var c checked
	for v := int32(0); v < n; v++ {
		ws := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			if u > v && part[u] != part[v] {
				c.cut += ws[i]
			}
		}
	}
	c.lmax = (total + int64(k) - 1) / int64(k) * (100 + epsPercent) / 100
	for _, w := range weights {
		c.maxBlock = max(c.maxBlock, w)
	}
	c.checksum = checksum(part)
	switch {
	case c.maxBlock > c.lmax:
		return c, fmt.Errorf("heaviest block weighs %d > Lmax %d", c.maxBlock, c.lmax)
	case c.cut != reportedCut:
		return c, fmt.Errorf("reported cut %d, recomputed %d", reportedCut, c.cut)
	}
	return c, nil
}

// checksum is an FNV-1a hash of the assignment.
func checksum(part []int32) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, b := range part {
		u := uint32(b)
		buf[0], buf[1], buf[2], buf[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checksumStore remembers the first checksum seen per workload, seed and
// graph across the benchmark's runs of one build, so that untraced and
// traced runs, and repeated runs, are compared with each other.
type checksumStore struct {
	path string
}

func newChecksumStore(cfg runConfig, workload string, graph int) checksumStore {
	return checksumStore{path: filepath.Join(cfg.out, "checksums",
		fmt.Sprintf("%s-%s-seed%d-graph%d", cfg.buildID, workload, cfg.seed, graph))}
}

// compare records sum when the store has none yet and otherwise reports a
// mismatch with the stored one.
func (s checksumStore) compare(sum string) error {
	prev, err := os.ReadFile(s.path)
	switch {
	case err == nil:
		if p := strings.TrimSpace(string(prev)); p != sum {
			return fmt.Errorf("partition checksum %s differs from %s of an earlier run with the same seed", sum, p)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		if err := os.MkdirAll(filepath.Dir(s.path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(s.path, []byte(sum+"\n"), 0o644)
	default:
		return err
	}
}

// median returns the middle value of xs (the mean of the two middle
// values for even lengths); 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// mean returns the arithmetic mean of xs; 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}
