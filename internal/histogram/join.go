package histogram

// JoinSelectivity estimates the selectivity of an equi-join between two
// columns summarized by h1 and h2: the expected number of matching row pairs
// divided by |R1|·|R2|. It computes a bucket-overlap "dot product" with the
// standard containment assumption inside each overlap (the min(d1,d2)
// distinct values on the sparser side all find partners):
//
//	matches(b1∩b2) = r1·r2 / max(d1, d2)
//
// where r and d are the rows and distinct values each bucket contributes to
// the overlap (prorated by value-range fraction). With MaxDiff histograms,
// hot values occupy singleton buckets, so heavily skewed foreign-key joins —
// where the naive 1/max(V) estimate is off by orders of magnitude — are
// estimated accurately.
func JoinSelectivity(h1, h2 *Histogram) float64 {
	n1, n2 := float64(h1.totalRows()), float64(h2.totalRows())
	if n1 <= 0 || n2 <= 0 || len(h1.Buckets) == 0 || len(h2.Buckets) == 0 {
		return 0
	}
	matches := 0.0
	j := 0
	for i := range h1.Buckets {
		b1 := &h1.Buckets[i]
		lo1, hi1 := b1.Lo.ToFloat(), b1.Hi.ToFloat()
		// Advance j past h2 buckets entirely below b1.
		for j < len(h2.Buckets) && h2.Buckets[j].Hi.Compare(b1.Lo) < 0 {
			j++
		}
		for k := j; k < len(h2.Buckets); k++ {
			b2 := &h2.Buckets[k]
			if b2.Lo.Compare(b1.Hi) > 0 {
				break
			}
			lo2, hi2 := b2.Lo.ToFloat(), b2.Hi.ToFloat()
			lo, hi := lo1, hi1
			if lo2 > lo {
				lo = lo2
			}
			if hi2 < hi {
				hi = hi2
			}
			f1 := overlapFraction(lo1, hi1, lo, hi)
			f2 := overlapFraction(lo2, hi2, lo, hi)
			r1, d1 := float64(b1.Rows)*f1, float64(b1.Distinct)*f1
			r2, d2 := float64(b2.Rows)*f2, float64(b2.Distinct)*f2
			if d1 < 1 {
				d1 = 1
			}
			if d2 < 1 {
				d2 = 1
			}
			dmax := d1
			if d2 > dmax {
				dmax = d2
			}
			matches += r1 * r2 / dmax
		}
	}
	sel := matches / (n1 * n2)
	return clamp01(sel)
}

// overlapFraction returns the fraction of [blo, bhi] covered by [lo, hi].
// Degenerate (single-point) buckets are either fully in or out.
func overlapFraction(blo, bhi, lo, hi float64) float64 {
	if bhi <= blo {
		if lo <= blo && blo <= hi {
			return 1
		}
		return 0
	}
	if hi < lo {
		return 0
	}
	f := (hi - lo) / (bhi - blo)
	if f > 1 {
		return 1
	}
	if f < 0 {
		return 0
	}
	return f
}
