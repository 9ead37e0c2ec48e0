package bloom

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1024, 4)
	vals := make([]string, 100)
	for i := range vals {
		vals[i] = fmt.Sprintf("value-%04d", i)
		f.Add(vals[i])
	}
	for _, v := range vals {
		if !f.MayContain(v) {
			t.Fatalf("false negative for %q — breaks skipping soundness", v)
		}
	}
}

// Property: anything added is always found, for arbitrary strings.
func TestNoFalseNegativesProperty(t *testing.T) {
	f := New(2048, 4)
	check := func(s string) bool {
		f.Add(s)
		return f.MayContain(s)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	f := New(1024, 4)
	for i := 0; i < 100; i++ {
		f.Add(fmt.Sprintf("member-%04d", i))
	}
	rng := rand.New(rand.NewSource(1))
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if f.MayContain(fmt.Sprintf("absent-%d", rng.Int63())) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.08 {
		t.Errorf("false-positive rate %.3f too high for 100 values in 1024 bits", rate)
	}
}

func TestEmptyFilterContainsNothing(t *testing.T) {
	f := New(512, 3)
	for i := 0; i < 100; i++ {
		if f.MayContain(fmt.Sprintf("x%d", i)) {
			t.Fatal("empty filter claims membership")
		}
	}
}

func TestValidation(t *testing.T) {
	for _, tc := range []struct{ bits, hashes int }{{0, 3}, {64, 0}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) accepted", tc.bits, tc.hashes)
				}
			}()
			New(tc.bits, tc.hashes)
		}()
	}
}

func TestBitRounding(t *testing.T) {
	f := New(65, 2) // rounds up to 128 bits
	if f.nbits != 128 {
		t.Errorf("nbits = %d, want 128", f.nbits)
	}
}
