package gpm_test

import (
	"fmt"

	gpm "github.com/gpm-sim/gpm"
)

// Example reproduces the README quickstart: map a PM file, persist from a
// kernel, and survive a power failure. NewContext with no options is the
// calibrated default node; see WithParams/WithMemConfig/WithTelemetry for
// the configurable form.
func Example() {
	ctx := gpm.NewContext()
	m, err := ctx.Map("/pm/data", 4096, true)
	if err != nil {
		panic(err)
	}
	ctx.PersistBegin()
	ctx.Launch("k", 1, 32, func(t *gpm.Thread) {
		t.StoreU64(m.Addr+uint64(t.GlobalID())*8, 42)
		gpm.Persist(t)
	})
	ctx.PersistEnd()
	ctx.Crash()
	fmt.Println(ctx.Space.ReadU64(m.Addr + 8*31))
	// Output: 42
}

// ExampleContext_LogCreateHCL shows transactional undo logging from a
// kernel: log the old value, update, persist — then roll back.
func ExampleContext_LogCreateHCL() {
	ctx := gpm.NewContext()
	data, _ := ctx.Map("/pm/tx", 64*32, true)
	log, _ := ctx.LogCreateHCL("/pm/txlog", 1<<20, 1, 32)

	ctx.PersistBegin()
	ctx.Launch("tx", 1, 32, func(t *gpm.Thread) {
		addr := data.Addr + uint64(t.GlobalID())*64
		old := make([]byte, 8) // logs the prior value (zero here)
		if err := log.Insert(t, old, -1); err != nil {
			panic(err)
		}
		t.StoreU64(addr, 7)
		gpm.Persist(t)
	})
	// Crash before commit: undo from the durable log.
	ctx.Crash()
	log2, _ := ctx.LogOpen("/pm/txlog")
	ctx.Launch("undo", 1, 32, func(t *gpm.Thread) {
		e := make([]byte, 8)
		if log2.Read(t, e, -1) != nil {
			return
		}
		t.StoreU64(data.Addr+uint64(t.GlobalID())*64, 0) // restore old
		gpm.Persist(t)
		_ = log2.Remove(t, 8, -1)
	})
	ctx.PersistEnd()
	ctx.Crash()
	fmt.Println(ctx.Space.ReadU64(data.Addr))
	// Output: 0
}
