package transport

import (
	"testing"

	"repro/internal/message"
)

func TestStatsAdd(t *testing.T) {
	var a, b Stats
	a.Total = 3
	a.ByKind[message.Request] = 3
	b.Total = 2
	b.ByKind[message.Release] = 2
	a.Add(b)
	if a.Total != 5 || a.ByKind[message.Request] != 3 || a.ByKind[message.Release] != 2 {
		t.Fatalf("Add wrong: %+v", a)
	}
}
