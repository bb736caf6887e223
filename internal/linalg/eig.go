package linalg

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// maxQLIters caps the implicit-QL iterations spent on one eigenvalue.
// The shifted iteration converges cubically, so a finite symmetric
// input needs two or three; reaching the cap is reported as an error.
const maxQLIters = 30

// SymEig computes the full eigendecomposition of a symmetric matrix:
// A = V diag(vals) V^T with orthonormal V, eigenvalues sorted in
// descending order (ties keep the order the iteration produced them
// in). It is the EISPACK tred2/tql2 pair: a Householder reduction to
// tridiagonal form with the reflectors accumulated into V, then the
// implicit-shift QL iteration on the tridiagonal, rotating V's columns
// as it goes — O(n^3) in total. Both phases index the column-major
// storage directly, so every inner loop runs down a contiguous column.
//
// The input is never modified. Only symmetric inputs are supported
// (the Tucker substrate needs Gram matrices of unfoldings); an
// asymmetric or non-finite input, or an iteration that reaches
// maxQLIters, returns an error.
func SymEig(a *tensor.Matrix) (vals []float64, vecs *tensor.Matrix, err error) {
	n := a.Rows()
	if a.Cols() != n {
		panic(fmt.Sprintf("linalg: SymEig of non-square %dx%d", n, a.Cols()))
	}
	const tolSym = 1e-9
	ad := a.Data()
	for j := 0; j < n; j++ {
		for i, x := range ad[j*n : j*n+n] {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, nil, fmt.Errorf("linalg: SymEig input not finite at (%d,%d)", i, j)
			}
			// Column i < j was scanned already, so (j,i) is finite.
			if i < j && math.Abs(x-ad[j+i*n]) > tolSym*(1+math.Abs(x)) {
				return nil, nil, fmt.Errorf("linalg: SymEig input not symmetric at (%d,%d)", i, j)
			}
		}
	}
	w := a.Clone()
	v := w.Data()
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(v, d, e, n)
	if err := tql2(v, d, e, n); err != nil {
		return nil, nil, err
	}
	// Finite entries near the overflow threshold can still overflow in
	// the reduction's row scaling; report that rather than return NaN.
	for _, xs := range [][]float64{d, v} {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, nil, fmt.Errorf("linalg: SymEig overflowed: input entries too large")
			}
		}
	}
	// Stable insertion sort of the eigenvalue order, descending.
	perm := make([]int, n)
	for i := range perm {
		j := i
		for j > 0 && d[perm[j-1]] < d[i] {
			perm[j] = perm[j-1]
			j--
		}
		perm[j] = i
	}
	vals = e // e is spent after tql2
	vecs = tensor.NewMatrix(n, n)
	for c, p := range perm {
		vals[c] = d[p]
		copy(vecs.Col(c), v[p*n:p*n+n])
	}
	return vals, vecs, nil
}

// tred2 reduces the symmetric matrix held in v (n x n, column-major;
// only the lower triangle is read) to tridiagonal form by Householder
// similarity transformations, overwriting v with the accumulated
// orthogonal transformation. On return d holds the diagonal and
// e[1:] the subdiagonal of the tridiagonal (e[0] = 0). This is the
// EISPACK routine of Bowdler, Martin, Reinsch and Wilkinson (Handbook
// for Automatic Computation, vol. II), as in JAMA, with V(i,j) stored
// at v[i+j*n] so the row-k loops of the original run down columns.
func tred2(v, d, e []float64, n int) {
	for j := range d {
		d[j] = v[n-1+j*n]
	}
	for i := n - 1; i > 0; i-- {
		// Scale the row to avoid under/overflow.
		var scale, h float64
		for _, x := range d[:i] {
			scale += math.Abs(x)
		}
		if scale == 0 { //repro:bitwise exact-zero guard: the row left of the diagonal is already zero
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = v[i-1+j*n]
				v[i+j*n] = 0
				v[j+i*n] = 0
			}
			d[i] = 0
			continue
		}
		// Generate the Householder vector.
		di, ei := d[:i], e[:i]
		for k := range di {
			di[k] /= scale
			h += di[k] * di[k]
		}
		f := di[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		di[i-1] = f - g
		clear(ei)
		// Apply the similarity transformation to the remaining columns.
		for j := range di {
			f = di[j]
			v[j+i*n] = f
			col := v[j*n : j*n+i]
			g = ei[j] + col[j]*f
			for k := j + 1; k < i; k++ {
				g += col[k] * di[k]
				ei[k] += col[k] * f
			}
			ei[j] = g
		}
		f = 0
		for j := range ei {
			ei[j] /= h
			f += ei[j] * di[j]
		}
		hh := f / (h + h)
		for j := range ei {
			ei[j] -= hh * di[j]
		}
		for j := range di {
			f, g = di[j], ei[j]
			col := v[j*n : j*n+i]
			for k := j; k < i; k++ {
				col[k] -= f*ei[k] + g*di[k]
			}
			di[j] = v[i-1+j*n]
			v[i+j*n] = 0
		}
		d[i] = h
	}
	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		v[n-1+i*n] = v[i+i*n]
		v[i+i*n] = 1
		next := v[(i+1)*n : (i+1)*n+i+1] // the reflector stored in column i+1
		if h := d[i+1]; h != 0 {         //repro:bitwise exact-zero guard: h is exactly 0 for a skipped reflector
			dk := d[:i+1]
			for k, x := range next {
				dk[k] = x / h
			}
			for j := 0; j <= i; j++ {
				col := v[j*n : j*n+i+1]
				var g float64
				for k, x := range next {
					g += x * col[k]
				}
				for k := range col {
					col[k] -= g * dk[k]
				}
			}
		}
		clear(next)
	}
	for j := range d {
		d[j] = v[n-1+j*n]
		v[n-1+j*n] = 0
	}
	v[n*n-1] = 1
	e[0] = 0
}

// tql2 finds the eigenvalues and eigenvectors of the symmetric
// tridiagonal matrix (d, e) left by tred2 with the implicit-shift QL
// iteration, applying every plane rotation to the columns of v. On
// return d holds the (unsorted) eigenvalues and column j of v the
// eigenvector of d[j]; e is destroyed. EISPACK/JAMA tql2 with an
// iteration cap of maxQLIters per eigenvalue.
func tql2(v, d, e []float64, n int) error {
	copy(e, e[1:])
	e[n-1] = 0
	const eps = 0x1p-52
	var f, tst1 float64
	for l := 0; l < n; l++ {
		// Find a small subdiagonal element; e[n-1] = 0 stops the scan.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		// If m == l, d[l] is already an eigenvalue; otherwise iterate.
		for iter := 1; m > l; iter++ {
			// Compute the implicit shift.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h
			// Implicit QL transformation.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				// Accumulate the rotation into columns i and i+1.
				vi := v[i*n : i*n+n]
				vi1 := v[(i+1)*n : (i+1)*n+n]
				for k, x := range vi {
					y := vi1[k]
					vi1[k] = s*x + c*y
					vi[k] = c*x - s*y
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if math.Abs(e[l]) <= eps*tst1 {
				break
			}
			if iter == maxQLIters {
				return fmt.Errorf("linalg: SymEig QL iteration did not converge for eigenvalue %d after %d iterations", l, maxQLIters)
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}

// LeadingEigvecs returns the r eigenvectors of the symmetric matrix a
// with the largest eigenvalues, as an n x r matrix.
func LeadingEigvecs(a *tensor.Matrix, r int) (*tensor.Matrix, error) {
	n := a.Rows()
	if r < 1 || r > n {
		panic(fmt.Sprintf("linalg: leading %d of %d eigenvectors", r, n))
	}
	_, vecs, err := SymEig(a)
	if err != nil {
		return nil, err
	}
	return vecs.Block(0, n, 0, r), nil
}

// QR computes the thin QR factorization of a (rows >= cols) with
// modified Gram-Schmidt: a = Q R, Q orthonormal columns. Rank
// deficiency produces an error.
func QR(a *tensor.Matrix) (q, r *tensor.Matrix, err error) {
	m, n := a.Rows(), a.Cols()
	if m < n {
		panic(fmt.Sprintf("linalg: thin QR needs rows >= cols, got %dx%d", m, n))
	}
	q = a.Clone()
	r = tensor.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		col := q.Col(j)
		for i := 0; i < j; i++ {
			qi := q.Col(i)
			var dot float64
			for k := range col {
				dot += qi[k] * col[k]
			}
			r.Set(i, j, dot)
			for k := range col {
				col[k] -= dot * qi[k]
			}
		}
		var nrm float64
		for _, v := range col {
			nrm += v * v
		}
		nrm = math.Sqrt(nrm)
		if nrm < 1e-12 {
			return nil, nil, fmt.Errorf("linalg: QR rank deficiency at column %d", j)
		}
		r.Set(j, j, nrm)
		inv := 1 / nrm
		for k := range col {
			col[k] *= inv
		}
	}
	return q, r, nil
}
