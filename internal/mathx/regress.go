package mathx

import "fmt"

// FitOLS fits y ≈ X·beta by ordinary least squares via the normal
// equations, where X has one row per observation. A column of ones must be
// included by the caller if an intercept is wanted. It returns ErrSingular
// for rank-deficient designs.
func FitOLS(x *Matrix, y []float64) ([]float64, error) {
	if x.Rows() != len(y) {
		return nil, fmt.Errorf("ols with %d rows and %d targets: %w", x.Rows(), len(y), ErrDimensionMismatch)
	}
	xt := x.Transpose()
	xtx, err := xt.Mul(x)
	if err != nil {
		return nil, fmt.Errorf("ols normal equations: %w", err)
	}
	xty, err := xt.MulVec(y)
	if err != nil {
		return nil, fmt.Errorf("ols normal equations: %w", err)
	}
	beta, err := SolveLinear(xtx, xty)
	if err != nil {
		return nil, fmt.Errorf("ols solve: %w", err)
	}
	return beta, nil
}

// FitARX fits the two-input autoregressive model used by the
// linear-invariant baseline (Jiang et al.):
//
//	y_t ≈ a1·y_{t-1} + b0·x_t + b1·x_{t-1} + c
//
// It returns the coefficients [a1, b0, b1, c]. At least five aligned samples
// are required.
func FitARX(x, y []float64) ([]float64, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("arx fit of %d and %d samples: %w", len(x), len(y), ErrDimensionMismatch)
	}
	if len(x) < 5 {
		return nil, fmt.Errorf("arx fit needs at least 5 samples, got %d", len(x))
	}
	n := len(x) - 1
	design, err := NewMatrix(n, 4)
	if err != nil {
		return nil, err
	}
	target := make([]float64, n)
	for t := 1; t < len(x); t++ {
		r := design.Row(t - 1)
		r[0] = y[t-1]
		r[1] = x[t]
		r[2] = x[t-1]
		r[3] = 1
		target[t-1] = y[t]
	}
	return FitOLS(design, target)
}

// PredictARX returns the one-step ARX prediction for time t (t ≥ 1) given
// the coefficient vector from FitARX.
func PredictARX(coef []float64, xt, xtm1, ytm1 float64) float64 {
	return coef[0]*ytm1 + coef[1]*xt + coef[2]*xtm1 + coef[3]
}
