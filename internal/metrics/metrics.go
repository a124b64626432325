// Package metrics implements the performance measures from the paper's
// evaluation: mean absolute error, Pearson correlation between ground truth
// and predictions, classification accuracy for the four-class accessibility
// labels, and the fairness index error.
package metrics

import (
	"fmt"
	"math"
)

// MAE returns the mean absolute error between prediction and truth.
func MAE(pred, truth []float64) (float64, error) {
	if err := sameLen(pred, truth); err != nil {
		return 0, err
	}
	if len(pred) == 0 {
		return 0, nil
	}
	var sum float64
	for i := range pred {
		sum += math.Abs(pred[i] - truth[i])
	}
	return sum / float64(len(pred)), nil
}

// Pearson returns the Pearson correlation coefficient between two series.
// Series with zero variance yield 0 (no linear relationship measurable).
func Pearson(a, b []float64) (float64, error) {
	if err := sameLen(a, b); err != nil {
		return 0, err
	}
	n := float64(len(a))
	if n == 0 {
		return 0, nil
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da := a[i] - ma
		db := b[i] - mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0, nil
	}
	return cov / math.Sqrt(va*vb), nil
}

// Accuracy returns the fraction of positions where the class labels match.
func Accuracy(pred, truth []int) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("metrics: length mismatch %d vs %d", len(pred), len(truth))
	}
	if len(pred) == 0 {
		return 0, nil
	}
	var hits int
	for i := range pred {
		if pred[i] == truth[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(pred)), nil
}

// FairnessIndexError returns |predicted - truth| of a fairness index (the
// FIE measure).
func FairnessIndexError(pred, truth float64) float64 {
	return math.Abs(pred - truth)
}

func sameLen(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("metrics: length mismatch %d vs %d", len(a), len(b))
	}
	return nil
}
