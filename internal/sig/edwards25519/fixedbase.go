package edwards25519

// This file adds the kernel for verifying signatures under a public key
// known ahead of time. The upstream VarTimeDoubleScalarBaseMult builds a
// width-5 table for the variable point on every call and walks a full
// 253-step doubling chain. When the point is fixed — a registered
// signer's −A — its radix-16 multiples can be precomputed once in the
// layout basepointTable uses for B, and a*P + b*B then costs one mixed
// addition per non-zero digit of each scalar plus four doublings.
// Variable-time is fine here: verification handles only public data.

import "btr/internal/sig/edwards25519/field"

// FixedBaseTable holds the radix-16 multiples of a fixed point P:
// table i holds 1..8 × 256^i·P as affine points, the same 32×8 layout
// basepointTable holds for the generator. A table is read-only once
// built and may be shared by any number of goroutines.
type FixedBaseTable struct {
	t [32]affineLookupTable
}

// NewFixedBaseTable builds the table for p. Every entry is computed in
// extended coordinates first and then converted to affine form with one
// shared field inversion (Montgomery's trick) instead of one inversion
// per entry.
func NewFixedBaseTable(p *Point) *FixedBaseTable {
	checkInitialized(p)
	const n = 32 * 8
	pts := make([]Point, n)
	base := new(Point).Set(p)
	cached := &projCached{}
	tmp1 := &projP1xP1{}
	tmp2 := &projP2{}
	for i := 0; i < 32; i++ {
		row := pts[8*i : 8*i+8]
		row[0].Set(base)
		cached.FromP3(base)
		for j := 1; j < 8; j++ {
			row[j].fromP1xP1(tmp1.Add(&row[j-1], cached))
		}
		// base = 256·base: eight doublings.
		tmp2.FromP3(base)
		for j := 0; j < 8; j++ {
			tmp2.FromP1xP1(tmp1.Double(tmp2))
		}
		base.fromP2(tmp2)
	}

	// prefix[i] = z_0 · … · z_{i-1}; one inversion of the full product
	// then peels off each 1/z_i from the top down.
	prefix := make([]field.Element, n)
	var acc, inv, zInv field.Element
	acc.One()
	for i := range pts {
		prefix[i].Set(&acc)
		acc.Multiply(&acc, &pts[i].z)
	}
	inv.Invert(&acc)
	t := &FixedBaseTable{}
	for i := n - 1; i >= 0; i-- {
		zInv.Multiply(&inv, &prefix[i])
		inv.Multiply(&inv, &pts[i].z)
		t.t[i/8].points[i%8].fromP3ZInv(&pts[i], &zInv)
	}
	return t
}

// fromP3ZInv sets v to the affine cached form of p, given zInv = 1/Z.
func (v *affineCached) fromP3ZInv(p *Point, zInv *field.Element) *affineCached {
	v.YplusX.Add(&p.y, &p.x)
	v.YminusX.Subtract(&p.y, &p.x)
	v.T2d.Multiply(&p.t, d2)
	v.YplusX.Multiply(&v.YplusX, zInv)
	v.YminusX.Multiply(&v.YminusX, zInv)
	v.T2d.Multiply(&v.T2d, zInv)
	return v
}

// VarTimeDoubleFixedBaseMult sets v = a*P + b*B, where P is the point t
// was built from and B is the canonical generator, and returns v.
//
// Both scalars are split into signed radix-16 digits and evaluated as in
// ScalarBaseMult: the odd digits of both against their tables, four
// doublings, then the even digits. Table entries are read directly and
// zero digits skipped, so execution time depends on the inputs.
func (v *Point) VarTimeDoubleFixedBaseMult(a *Scalar, t *FixedBaseTable, b *Scalar) *Point {
	aDigits := a.signedRadix16()
	bDigits := b.signedRadix16()
	bTable := basepointTable()
	tmp1 := &projP1xP1{}
	tmp2 := &projP2{}

	v.Set(identity)
	for i := 1; i < 64; i += 2 {
		v.varTimeAddDigit(&t.t[i/2], aDigits[i], tmp1)
		v.varTimeAddDigit(&bTable[i/2], bDigits[i], tmp1)
	}

	tmp2.FromP3(v)
	for j := 0; j < 3; j++ {
		tmp2.FromP1xP1(tmp1.Double(tmp2))
	}
	v.fromP1xP1(tmp1.Double(tmp2))

	for i := 0; i < 64; i += 2 {
		v.varTimeAddDigit(&t.t[i/2], aDigits[i], tmp1)
		v.varTimeAddDigit(&bTable[i/2], bDigits[i], tmp1)
	}
	return v
}

// varTimeAddDigit sets v = v + d·Q, where table holds 1..8 × Q and
// −8 <= d <= 8, reading the entry directly rather than in constant time.
func (v *Point) varTimeAddDigit(table *affineLookupTable, d int8, tmp *projP1xP1) {
	switch {
	case d > 0:
		v.fromP1xP1(tmp.AddAffine(v, &table.points[d-1]))
	case d < 0:
		v.fromP1xP1(tmp.SubAffine(v, &table.points[-d-1]))
	}
}
