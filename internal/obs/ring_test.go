package obs

import (
	"slices"
	"testing"
)

func TestRing(t *testing.T) {
	for _, tc := range []struct {
		name           string
		capacity, push int
		n              int
		want           []int
		overwrites     int
	}{
		{"empty", 3, 0, 0, []int{}, 0},
		{"partial_all", 4, 3, 0, []int{0, 1, 2}, 0},
		{"partial_last_2", 4, 3, 2, []int{1, 2}, 0},
		{"n_above_len", 4, 3, 9, []int{0, 1, 2}, 0},
		{"negative_n", 4, 3, -1, []int{0, 1, 2}, 0},
		{"exactly_full", 3, 3, 0, []int{0, 1, 2}, 0},
		{"wrapped_all", 3, 7, 0, []int{4, 5, 6}, 4},
		{"wrapped_last_1", 3, 7, 1, []int{6}, 4},
		{"wrapped_across_seam", 4, 6, 3, []int{3, 4, 5}, 2},
		{"capacity_1", 1, 5, 0, []int{4}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing[int](tc.capacity)
			overwrites := 0
			for i := range tc.push {
				if r.Push(i) {
					overwrites++
				}
			}
			if overwrites != tc.overwrites {
				t.Errorf("%d overwrites, want %d", overwrites, tc.overwrites)
			}
			if want := min(tc.push, tc.capacity); r.Len() != want {
				t.Errorf("Len() = %d, want %d", r.Len(), want)
			}
			got := r.Last(tc.n)
			if !slices.Equal(got, tc.want) {
				t.Fatalf("Last(%d) = %v, want %v", tc.n, got, tc.want)
			}
			// Last hands out a copy.
			if len(got) > 0 {
				got[0] = -1
				if again := r.Last(tc.n); !slices.Equal(again, tc.want) {
					t.Errorf("Last aliases the ring: %v", again)
				}
			}
		})
	}
}

func TestRingRejectsNonPositiveCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0) did not panic")
		}
	}()
	NewRing[int](0)
}
