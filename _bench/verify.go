package main

import (
	"encoding/json"
	"math"

	iblocktri "blocktri/internal/blocktri"
	"blocktri/internal/mat"
)

// residualTol is the largest relative residual ||A x - b||_F / ||b||_F an
// answer may have and still count as correct.
const residualTol = 1e-8

// cause classifies the outcome of one operation.
type cause int

const (
	causeOK          cause = iota
	causeWrong             // answer returned, residual above residualTol (or NaN)
	causeError             // typed error from the library, or a non-200 status
	causeUndecodable       // 200 status whose body is not a solve response
	numCauses
)

var causeNames = [numCauses]string{"ok", "wrong_answer", "error_or_status", "undecodable_body"}

// tally counts operations by cause.
type tally [numCauses]int64

func (t *tally) add(c cause) { t[c]++ }

func (t tally) attempted() int64 {
	var n int64
	for _, v := range t {
		n += v
	}
	return n
}

func (t tally) failed() int64 { return t.attempted() - t[causeOK] }

func (t tally) byName() map[string]int64 {
	m := make(map[string]int64, numCauses)
	for i, v := range t {
		m[causeNames[i]] = v
	}
	return m
}

// relResidual returns ||A x - b||_F / ||b||_F for stacked (N*M) x R panels,
// one matrix row at a time with the columns innermost. It is written
// independently of the library's kernels so that a defect there cannot hide
// a wrong answer. A non-finite x yields NaN or +Inf, which residualOK
// rejects.
func relResidual(a *iblocktri.Matrix, x, b *mat.Matrix) float64 {
	m, r := a.M, b.Cols
	acc := make([]float64, r)
	var num, den float64
	for i := 0; i < a.N; i++ {
		for row := 0; row < m; row++ {
			g := i*m + row
			for j, v := range b.Data[g*b.Stride : g*b.Stride+r] {
				acc[j] = -v
				den += v * v
			}
			addBlockRow(acc, a.Diag[i], row, x, i*m)
			if i > 0 {
				addBlockRow(acc, a.Lower[i], row, x, (i-1)*m)
			}
			if i < a.N-1 {
				addBlockRow(acc, a.Upper[i], row, x, (i+1)*m)
			}
			for _, v := range acc {
				num += v * v
			}
		}
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// addBlockRow adds row `row` of blk times x's rows [off, off+blk.Cols) to
// acc, one entry per column of x.
func addBlockRow(acc []float64, blk *mat.Matrix, row int, x *mat.Matrix, off int) {
	for k, v := range blk.Data[row*blk.Stride : row*blk.Stride+blk.Cols] {
		xr := x.Data[(off+k)*x.Stride : (off+k)*x.Stride+len(acc)]
		for j := range acc {
			acc[j] += v * xr[j]
		}
	}
}

// residualOK reports whether a relative residual passes; NaN fails.
func residualOK(rr float64) bool { return rr <= residualTol }

// solveResponse is the part of blocktri-serve's solve response the
// benchmark reads.
type solveResponse struct {
	X      [][]float64 `json:"x"`
	Warm   bool        `json:"warm"`
	WallNs int64       `json:"wall_ns"`
}

// decodeSolve classifies an HTTP solve reply. A non-200 status is an
// error; a 200 whose body is empty, is not JSON, or does not carry a
// rows x cols solution is undecodable. On causeOK the solution is returned
// as a rows x cols panel.
func decodeSolve(status int, body []byte, rows, cols int) (*solveResponse, *mat.Matrix, cause) {
	if status != 200 {
		return nil, nil, causeError
	}
	var resp solveResponse
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.X) != cols {
		return nil, nil, causeUndecodable
	}
	x := mat.New(rows, cols)
	for j, col := range resp.X {
		if len(col) != rows {
			return nil, nil, causeUndecodable
		}
		for i, v := range col {
			x.Data[i*x.Stride+j] = v
		}
	}
	return &resp, x, causeOK
}
