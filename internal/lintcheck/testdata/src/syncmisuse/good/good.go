// Package good uses sync primitives in the ways the syncmisuse analyzer
// accepts: pointer receivers, WaitGroup joins, and channel joins.
package good

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func fanOut(work []func()) {
	var wg sync.WaitGroup
	for _, f := range work {
		wg.Add(1)
		go func(f func()) {
			defer wg.Done()
			f()
		}(f)
	}
	wg.Wait()
}

func viaChannel(f func() int) int {
	ch := make(chan int, 1)
	//lint:ignore goroutinelifecycle joined by the channel receive below
	go func() { ch <- f() }()
	return <-ch
}

// tableCache holds a lazily built translation table; the Once is reached
// only through a pointer receiver, so it is never copied.
type tableCache struct {
	once sync.Once
	tab  []int
}

func (tc *tableCache) table(build func() []int) []int {
	tc.once.Do(func() { tc.tab = build() })
	return tc.tab
}

// scatterWorkers fans translation jobs out to goroutines and joins them
// all before returning, the shape of the generic engine's pair stage.
func scatterWorkers(jobs []int, apply func(int)) {
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			apply(j)
		}(j)
	}
	wg.Wait()
}
