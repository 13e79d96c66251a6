package sim

import "testing"

func BenchmarkShardScheduleRun(b *testing.B) {
	b.ReportAllocs()
	k := oneShard()
	for i := 0; i < b.N; i++ {
		k.After(0, 1, 0, func() {})
		if i%1024 == 1023 {
			k.Run(1, k.Now(0)+2)
		}
	}
	k.Run(1, k.Now(0)+2)
}

func BenchmarkShardCascade(b *testing.B) {
	b.ReportAllocs()
	k := oneShard()
	n := 0
	var loop func()
	loop = func() {
		if n < b.N {
			n++
			k.After(0, 1, 0, loop)
		}
	}
	k.At(0, 0, 0, loop)
	k.Run(1, Time(b.N)+10)
}

func BenchmarkRandUint64(b *testing.B) {
	b.ReportAllocs()
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkRandExpTicks(b *testing.B) {
	b.ReportAllocs()
	r := NewRand(1)
	var sink Time
	for i := 0; i < b.N; i++ {
		sink += r.ExpTicks(1000)
	}
	_ = sink
}

func BenchmarkRandIntn(b *testing.B) {
	b.ReportAllocs()
	r := NewRand(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(49)
	}
	_ = sink
}
