package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestMapSerialEqualsParallel(t *testing.T) {
	const n = 37
	square := func(i int) (int, error) { return i * i, nil }
	serial, err := Map(1, n, square)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range serial {
		if r != i*i {
			t.Fatalf("serial: result %d = %d, want %d", i, r, i*i)
		}
	}
	for _, workers := range []int{0, 2, 8, 100} {
		got, err := Map(workers, n, square)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d: %v, want %v", workers, got, serial)
		}
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	errA := errors.New("cell 3 failed")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		_, err := Map(workers, 10, func(i int) (int, error) {
			ran.Add(1)
			if i == 3 {
				return 0, errA
			}
			if i == 7 {
				return 0, fmt.Errorf("cell 7 failed")
			}
			return i, nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: err = %v, want cell 3's error", workers, err)
		}
		if r := ran.Load(); r != 10 {
			t.Fatalf("workers=%d: %d of 10 cells ran, want all", workers, r)
		}
	}
}

func TestMapExecutesEveryCellExactlyOnce(t *testing.T) {
	const n = 200
	var counts [n]atomic.Int32
	if _, err := Map(8, n, func(i int) (struct{}, error) {
		counts[i].Add(1)
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("cell %d ran %d times", i, c)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	for _, workers := range []int{1, 4} {
		got, err := Map(workers, 0, func(int) (int, error) {
			t.Fatal("cell called on empty input")
			return 0, nil
		})
		if err != nil || len(got) != 0 {
			t.Fatalf("workers=%d: got %v, %v", workers, got, err)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	if _, err := Map(workers, 50, func(int) (struct{}, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		runtime.Gosched()
		cur.Add(-1)
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent cells, want <= %d", p, workers)
	}
}

func TestAutoPositive(t *testing.T) {
	if Auto() < 1 {
		t.Fatalf("Auto() = %d", Auto())
	}
}
