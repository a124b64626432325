package metrics

import (
	"math"
	"math/rand"
	"testing"
)

func TestMAE(t *testing.T) {
	got, err := MAE([]float64{1, 2, 3}, []float64{2, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if want := (1.0 + 0 + 2) / 3; math.Abs(got-want) > 1e-12 {
		t.Errorf("MAE = %v, want %v", got, want)
	}
	if _, err := MAE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if v, err := MAE(nil, nil); err != nil || v != 0 {
		t.Error("empty MAE should be 0")
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{10, 20, 30, 40}
	r, err := Pearson(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("r = %v, want 1", r)
	}
	// Perfect anti-correlation.
	c := []float64{4, 3, 2, 1}
	r, err = Pearson(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("r = %v, want -1", r)
	}
}

func TestPearsonInvarianceToAffineTransforms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 100)
	b := make([]float64, 100)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = a[i]*0.5 + rng.NormFloat64()*0.2
	}
	r1, err := Pearson(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Affine transform of either series leaves r unchanged.
	a2 := make([]float64, len(a))
	for i := range a {
		a2[i] = 3*a[i] + 7
	}
	r2, err := Pearson(a2, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1-r2) > 1e-9 {
		t.Errorf("affine transform changed r: %v vs %v", r1, r2)
	}
	if r1 < 0.8 {
		t.Errorf("r = %v, expected strong correlation", r1)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if r, err := Pearson([]float64{5, 5, 5}, []float64{1, 2, 3}); err != nil || r != 0 {
		t.Errorf("constant series r = %v err=%v, want 0", r, err)
	}
	if r, err := Pearson(nil, nil); err != nil || r != 0 {
		t.Errorf("empty r = %v err=%v", r, err)
	}
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestAccuracy(t *testing.T) {
	acc, err := Accuracy([]int{0, 1, 2, 3}, []int{0, 1, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0.75 {
		t.Errorf("accuracy = %v", acc)
	}
	if _, err := Accuracy([]int{1}, []int{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if acc, err := Accuracy(nil, nil); err != nil || acc != 0 {
		t.Errorf("empty accuracy = %v err=%v", acc, err)
	}
}

func TestFairnessIndexError(t *testing.T) {
	if got := FairnessIndexError(0.9, 0.85); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("FIE = %v", got)
	}
	if got := FairnessIndexError(0.8, 0.9); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("FIE = %v", got)
	}
}
