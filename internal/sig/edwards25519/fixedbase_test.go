package edwards25519

import "testing"

// TestVarTimeDoubleFixedBaseMultMatchesDoubleScalar pins the fixed-table
// kernel against the upstream variable-base one on the edge scalars
// (0, 1, L−1) and on random ones, for every pairing of them.
func TestVarTimeDoubleFixedBaseMultMatchesDoubleScalar(t *testing.T) {
	zero := NewScalar()
	one, err := NewScalar().SetCanonicalBytes(append([]byte{1}, make([]byte, 31)...))
	if err != nil {
		t.Fatal(err)
	}
	lMinus1 := NewScalar().Subtract(zero, one)
	scalars := []*Scalar{zero, one, lMinus1}
	for seed := byte(40); seed < 46; seed++ {
		scalars = append(scalars, testScalar(t, seed))
	}

	points := []*Point{
		NewGeneratorPoint(),
		new(Point).Negate(new(Point).ScalarBaseMult(testScalar(t, 7))),
		new(Point).ScalarBaseMult(testScalar(t, 8)),
	}
	for pi, P := range points {
		table := NewFixedBaseTable(P)
		for ai, a := range scalars {
			for bi, b := range scalars {
				want := new(Point).VarTimeDoubleScalarBaseMult(a, P, b)
				got := new(Point).VarTimeDoubleFixedBaseMult(a, table, b)
				if want.Equal(got) != 1 {
					t.Fatalf("point %d, a=#%d, b=#%d: fixed-base result differs from VarTimeDoubleScalarBaseMult", pi, ai, bi)
				}
			}
		}
	}
}

// TestFixedBaseTableEntries checks every table entry against a direct
// multiple: entry (i, j) must be (j+1)·256^i·P.
func TestFixedBaseTableEntries(t *testing.T) {
	P := new(Point).ScalarBaseMult(testScalar(t, 9))
	table := NewFixedBaseTable(P)
	row := new(Point).Set(P)
	for i := 0; i < 32; i++ {
		var ref affineLookupTable
		ref.FromP3(row)
		for j := 0; j < 8; j++ {
			want, got := &ref.points[j], &table.t[i].points[j]
			if want.YplusX.Equal(&got.YplusX) != 1 || want.YminusX.Equal(&got.YminusX) != 1 || want.T2d.Equal(&got.T2d) != 1 {
				t.Fatalf("entry (%d, %d) differs from (j+1)·256^i·P", i, j)
			}
		}
		for k := 0; k < 8; k++ {
			row.Add(row, row)
		}
	}
}
