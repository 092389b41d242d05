package cache

import (
	"fmt"
	"testing"
)

// spyValuer prices every donation at (class 0, subclass 0) and records the
// subclass DonateSlab reports back.
type spyValuer struct {
	nullPolicy
	donated []int
}

func (s *spyValuer) CheapestOutgoing() (class, sub int, v float64, ok bool) { return 0, 0, 0, true }
func (s *spyValuer) BestIncoming() float64                                  { return 0 }
func (s *spyValuer) NoteDonated(_, sub int)                                 { s.donated = append(s.donated, sub) }

// TestDonationRollsThePricedSubclass: the priced subclass holds fewer items
// than a slab, so the drain runs it dry and finishes on its sibling. The
// history that must roll is still the priced subclass's, exactly as PAMA's
// migrate rolls the subclass it priced.
func TestDonationRollsThePricedSubclass(t *testing.T) {
	pol := &spyValuer{nullPolicy: nullPolicy{bounds: []float64{0.01, 0.1, 5}}}
	c := newTestCache(t, 2, pol)
	spc := c.SlotsPerSlab(0)
	for i := 0; i < 2*spc; i++ {
		pen := 0.05 // subclass 1
		if i < spc/4 {
			pen = 0.001 // subclass 0
		}
		if err := c.Set(fmt.Sprintf("k%d", i), 40, pen, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if c.FreeSlabs() != 0 || c.SubLen(0, 0) != spc/4 {
		t.Fatalf("setup: free slabs %d, subclass 0 holds %d", c.FreeSlabs(), c.SubLen(0, 0))
	}
	if err := c.DonateSlab(); err != nil {
		t.Fatal(err)
	}
	if c.SubLen(0, 0) != 0 || c.SubLen(0, 1) != spc {
		t.Fatalf("drain left subclass 0 with %d, subclass 1 with %d", c.SubLen(0, 0), c.SubLen(0, 1))
	}
	if len(pol.donated) != 1 || pol.donated[0] != 0 {
		t.Fatalf("NoteDonated got subclasses %v, want the priced [0]", pol.donated)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
