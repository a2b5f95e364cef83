package jobs

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestCacheCorruptConcurrentReaders: N goroutines racing Get against a
// truncated envelope all degrade to a clean miss — no panic, no partial
// decode, and the corrupt tally counts every reader. Run under -race in
// CI, this pins the fleet's shared-cache failure mode: a torn write on
// the coordinator's store turns into N recomputations, never N crashes.
func TestCacheCorruptConcurrentReaders(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("v1")
	if err := c.Put(key, payload{Name: "sgemm", Cycles: 99}); err != nil {
		t.Fatal(err)
	}
	// Tear the entry mid-envelope, the on-disk shape of a crash during a
	// non-atomic copy.
	path := filepath.Join(dir, key.Hex()+".json")
	if err := os.WriteFile(path, []byte(`{"schema": "pilotrf-jobcache/v1", "key": "`), 0o644); err != nil {
		t.Fatal(err)
	}

	const readers = 16
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		gate  = make(chan struct{})
	)
	hits := make([]bool, readers)
	start.Add(readers)
	done.Add(readers)
	for i := 0; i < readers; i++ {
		go func(i int) {
			defer done.Done()
			start.Done()
			<-gate // maximize overlap: everyone reads at once
			var got payload
			hits[i] = c.Get(key, &got)
			if hits[i] {
				t.Errorf("reader %d: corrupt entry returned a hit (%+v)", i, got)
			}
			if got != (payload{}) {
				t.Errorf("reader %d: miss left partial decode %+v", i, got)
			}
		}(i)
	}
	start.Wait()
	close(gate)
	done.Wait()

	st := c.Stats()
	if st.Corrupt != readers {
		t.Errorf("corrupt count %d, want %d (every reader must see the corruption)", st.Corrupt, readers)
	}

	// The miss-and-recompute contract: racing healers (any reader that
	// recomputed may write back) and readers never observe anything but
	// a miss or the healed payload.
	healed := payload{Name: "sgemm", Cycles: 99}
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				if err := c.Put(key, healed); err != nil {
					t.Errorf("healer %d: %v", i, err)
				}
			}
			var got payload
			if c.Get(key, &got) && got != healed {
				t.Errorf("reader %d: hit with wrong payload %+v", i, got)
			}
		}(i)
	}
	wg.Wait()
	var got payload
	if !c.Get(key, &got) || got != healed {
		t.Fatalf("entry not healed after concurrent recompute: %+v", got)
	}

	// The healed entry is now in the in-process tier: concurrent readers
	// decode their own copies of it.
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var got payload
			if !c.Get(key, &got) || got != healed {
				t.Errorf("reader %d: tier read %+v, want %+v", i, got, healed)
			}
			got.Name = "scribbled"
		}(i)
	}
	wg.Wait()
}
