// Quickstart: map a PM file into the GPU's address space, write and persist
// from inside a kernel, crash the node, and observe that exactly the
// persisted data survived — the libGPM persistency primitives of §5.1 in
// ~60 lines.
package main

import (
	"fmt"
	"log"

	gpm "github.com/gpm-sim/gpm"
)

func main() {
	// The root facade assembles a node from functional options; with none it
	// is the calibrated default.
	ctx := gpm.NewContext()

	// gpm_map: a PM-resident file, visible to GPU kernels through UVA.
	m, err := ctx.Map("/pm/quickstart", 64*64, true)
	if err != nil {
		log.Fatal(err)
	}

	// gpm_persist_begin: disable DDIO so in-kernel fences reach the ADR
	// persistence domain instead of stopping at the CPU's LLC.
	ctx.PersistBegin()
	res := ctx.Launch("hello", 1, 64, func(t *gpm.Thread) {
		// One 64B line per thread, so persistence is decided per thread.
		addr := m.Addr + uint64(t.GlobalID())*64
		t.StoreU64(addr, uint64(t.GlobalID()*t.GlobalID()))
		if t.GlobalID()%2 == 0 {
			gpm.Persist(t) // __threadfence_system: this thread's writes are now durable
		}
		// Odd threads never persist: their writes are in flight when the
		// power fails.
	})
	ctx.PersistEnd()
	fmt.Printf("kernel ran in %v simulated time\n", res.Elapsed)

	// Power failure: volatile memory and in-flight writes are lost.
	ctx.Crash()

	survived, lost := 0, 0
	for i := 0; i < 64; i++ {
		v := ctx.Space.ReadU64(m.Addr + uint64(i)*64)
		if i%2 == 0 {
			if v != uint64(i*i) {
				log.Fatalf("persisted slot %d corrupted: %d", i, v)
			}
			survived++
		} else if v == 0 {
			lost++
		}
	}
	fmt.Printf("after crash: %d persisted slots survived, %d unpersisted slots lost\n",
		survived, lost)
	fmt.Println("exactly what gpm_persist promised.")
}
