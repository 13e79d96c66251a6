package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed uint64) []uint64 {
		r := NewRand(seed)
		out := make([]uint64, 20)
		for i := range out {
			out[i] = r.Uint64()
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the stream")
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestSubstreamsIndependent(t *testing.T) {
	a := Substream(1, 0)
	b := Substream(1, 1)
	if a.Uint64() == b.Uint64() {
		t.Fatal("adjacent substreams should decorrelate")
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestIntnRoughlyUniform(t *testing.T) {
	r := NewRand(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		if c < draws/n*8/10 || c > draws/n*12/10 {
			t.Fatalf("bucket %d count %d far from uniform %d", i, c, draws/n)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 1000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRand(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if mean < 0.97 || mean > 1.03 {
		t.Fatalf("exp mean = %v, want ~1", mean)
	}
}

func TestExpTicksPositive(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 1000; i++ {
		if d := r.ExpTicks(0.01); d < 1 {
			t.Fatalf("ExpTicks returned %d < 1", d)
		}
	}
}

// TestPoissonMeanAndVariance checks the sampler at a small and a large
// mean (the log-space form must not degrade where exp(-mean)
// underflows) plus the edge cases the warm-start seeder relies on.
func TestPoissonMeanAndVariance(t *testing.T) {
	r := NewRand(17)
	for _, mean := range []float64{0.3, 9, 800} {
		const n = 20000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			k := float64(r.Poisson(mean))
			sum += k
			sumSq += k * k
		}
		m := sum / n
		v := sumSq/n - m*m
		// Poisson: mean == variance; 5σ tolerance on the sample mean.
		tol := 5 * math.Sqrt(mean/n)
		if math.Abs(m-mean) > tol {
			t.Fatalf("Poisson(%v) sample mean = %v, want within %v", mean, m, tol)
		}
		if v < mean*0.9 || v > mean*1.1 {
			t.Fatalf("Poisson(%v) sample variance = %v, want ~%v", mean, v, mean)
		}
	}
	if NewRand(1).Poisson(0) != 0 || NewRand(1).Poisson(-3) != 0 {
		t.Fatal("non-positive mean must yield 0")
	}
	a, b := NewRand(23), NewRand(23)
	for i := 0; i < 100; i++ {
		if a.Poisson(9) != b.Poisson(9) {
			t.Fatal("same seed must reproduce the Poisson stream")
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := NewRand(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
