package power

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// FuzzFabricHeldStampsMatchTouchAt drives two fabrics over equal servers
// through the same operations: one stamps its held set through Hold and
// StampHeld, the other touches every held position with TouchAt at each
// stamp. The first input byte picks the server count and dense or
// non-dense ids; every later byte pair is one operation. After each
// operation LRUPositions and Checkpoint must agree, and the lazy fabric's
// order must not change while its OrderVersion stays the same.
func FuzzFabricHeldStampsMatchTouchAt(f *testing.F) {
	f.Add([]byte{5, 3, 7, 0, 1, 0, 1, 8, 0, 2, 4, 0, 1, 5, 9, 0, 2})
	f.Add([]byte{0x8b, 3, 200, 0, 3, 1, 0, 4, 5, 0, 2, 6, 2, 0, 1, 7, 2, 3, 17, 0, 0, 10, 0, 0, 3})
	f.Add([]byte{11, 3, 255, 2, 4, 4, 0, 5, 17, 0, 0, 2, 3, 3, 12, 1, 3, 8, 1, 9, 0, 10, 0, 3, 1, 0, 2})
	f.Add([]byte{6, 3, 9, 2, 3, 8, 0, 11, 0, 0, 1, 11, 5, 8, 0, 2, 2, 9, 0, 11, 4, 0, 1})
	for seed := int64(1); seed <= 4; seed++ {
		buf := make([]byte, 1+2*150)
		rand.New(rand.NewSource(seed)).Read(buf)
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		n := 1 + int(in[0]%12)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
			if in[0]&0x80 != 0 { // non-dense: ids out of position order
				ids[i] = 7 * (n - i)
			}
		}
		build := func() *Fabric {
			servers := make([]*Server, n)
			for i, id := range ids {
				servers[i] = MustNewServer(id, DefaultServerConfig())
			}
			return MustNewFabric(servers)
		}
		lazy, eager := build(), build()
		var held []int // the eager fabric's held set, as the test keeps it
		now := time.Second
		stamp := func() {
			lazy.StampHeld(now)
			for _, i := range held {
				eager.TouchAt(i, now)
			}
		}
		prevOrder := slices.Clone(lazy.LRUPositions())
		prevVersion := lazy.OrderVersion()
		ops := in[1:]
		if len(ops) > 2*400 {
			ops = ops[:2*400]
		}
		for k := 0; k+2 <= len(ops); k += 2 {
			kind, arg := ops[k]%12, ops[k+1]
			i := int(arg) % n
			switch kind {
			case 0, 1: // one held stamp, mostly newer, sometimes equal or older
				now += time.Duration(int(arg%5)-1) * time.Second
				stamp()
			case 2: // several held ticks in a row, unread in between
				for range 1 + arg%6 {
					now += time.Second
					stamp()
				}
			case 3: // a new row: a new held set, added in any order
				rng := rand.New(rand.NewSource(int64(arg)))
				held = held[:0]
				lazy.Hold()
				for _, p := range rng.Perm(n) {
					if rng.Intn(3) > 0 {
						held = append(held, p)
						lazy.HoldAt(p)
					}
				}
			case 4:
				at := now - time.Duration(arg%3)*time.Second
				lazy.TouchAt(i, at)
				eager.TouchAt(i, at)
			case 5:
				src := Source(int(arg) / n % NumSources)
				errL, errE := lazy.AssignAt(i, src), eager.AssignAt(i, src)
				if (errL == nil) != (errE == nil) {
					t.Fatalf("op %d: AssignAt(%d, %v) errors differ: %v vs %v", k/2, i, src, errL, errE)
				}
			case 6:
				_ = lazy.FailRelay(ids[i])
				_ = eager.FailRelay(ids[i])
			case 7:
				lazy.RepairRelay(ids[i])
				eager.RepairRelay(ids[i])
			case 8:
				lazy.LRUPositions()
				eager.LRUPositions()
			case 9:
				lazy.Checkpoint()
				eager.Checkpoint()
			case 10:
				lazy.Reset()
				eager.Reset()
				held = held[:0]
			case 11: // a position joins the current set after stamps or reads
				if !slices.Contains(held, i) {
					held = append(held, i)
					lazy.HoldAt(i)
				}
			}

			got, want := lazy.LRUPositions(), eager.LRUPositions()
			if !slices.Equal(got, want) {
				t.Fatalf("op %d (kind %d): LRU order %v, eager %v", k/2, kind, got, want)
			}
			if v := lazy.OrderVersion(); v == prevVersion && !slices.Equal(got, prevOrder) {
				t.Fatalf("op %d (kind %d): order changed from %v to %v under version %d", k/2, kind, prevOrder, got, v)
			}
			prevVersion, prevOrder = lazy.OrderVersion(), append(prevOrder[:0], got...)
			if cl, ce := lazy.Checkpoint(), eager.Checkpoint(); !reflect.DeepEqual(cl, ce) {
				t.Fatalf("op %d (kind %d): checkpoint\n%+v\neager\n%+v", k/2, kind, cl, ce)
			}
		}
	})
}
