// Batch inference: run a whole batch of inferences concurrently on the
// mesh with Engine.InferBatch and compare simulated throughput against the
// same inferences executed serially. The workload is a small, layer-heavy
// net on the 8×8/MC8 platform with a one-MAC-per-cycle PE (64-cycle segment
// latency): the compute-bound regime where layer tails leave a serial mesh
// idle and batching fills it.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"nocbt"
	"nocbt/internal/dnn"
	"nocbt/internal/tensor"
)

func microNet(seed int64) *dnn.Model {
	rng := rand.New(rand.NewSource(seed))
	return &dnn.Model{
		ModelName: "micro",
		InShape:   []int{1, 12, 12},
		Layers: []dnn.Layer{
			dnn.NewConv2D(1, 4, 3, 1, 1, rng),
			dnn.NewReLU(),
			dnn.NewMaxPool2(),
			dnn.NewConv2D(4, 8, 3, 1, 1, rng),
			dnn.NewReLU(),
			dnn.NewMaxPool2(),
			dnn.NewFlatten(),
			dnn.NewLinear(8*3*3, 10, rng),
		},
	}
}

func platform() nocbt.Platform {
	cfg := nocbt.MustPlatform(nocbt.PaperOptions8x8MC8(nocbt.Fixed8())...)
	cfg.PEComputeCycles = 64 // one MAC per cycle over a full 64-pair segment
	return cfg
}

func main() {
	ctx := context.Background()
	const batch = 8
	model := microNet(1)
	inputs := make([]*tensor.Tensor, batch)
	for i := range inputs {
		x := tensor.New(model.InShape...)
		x.Uniform(0, 1, rand.New(rand.NewSource(int64(10+i))))
		inputs[i] = x
	}

	// Serial reference: one inference at a time, mesh drained between them.
	serial, err := nocbt.NewEngine(platform(), model)
	if err != nil {
		log.Fatal(err)
	}
	serialOut := make([]*tensor.Tensor, batch)
	for i, in := range inputs {
		if serialOut[i], err = serial.Infer(ctx, in); err != nil {
			log.Fatal(err)
		}
	}

	// Batched: all eight inferences share the mesh concurrently
	// (PipelinedLayers; the SerialLayers default is the paper-faithful
	// one-inference-at-a-time discipline).
	cfg := platform()
	cfg.LayerMode = nocbt.PipelinedLayers
	batched, err := nocbt.NewEngine(cfg, model)
	if err != nil {
		log.Fatal(err)
	}
	batchOut, err := batched.InferBatch(ctx, inputs)
	if err != nil {
		log.Fatal(err)
	}
	for i := range batchOut {
		for j := range batchOut[i].Data {
			if batchOut[i].Data[j] != serialOut[i].Data[j] {
				log.Fatalf("output %d diverged from serial inference", i)
			}
		}
	}

	st := batched.LastBatchStats()
	fmt.Printf("workload: %d × %s on 8x8 MC8 fixed-8, PE latency %d cycles\n",
		batch, model.Name(), platform().PEComputeCycles)
	fmt.Printf("serial : %7d cycles  (%.3f inferences/kcycle)\n",
		serial.Cycles(), float64(batch)*1000/float64(serial.Cycles()))
	fmt.Printf("batched: %7d cycles  (%.3f inferences/kcycle)  speedup %.2fx\n",
		st.Cycles, st.Throughput(), float64(serial.Cycles())/float64(st.Cycles))
	fmt.Printf("latency: avg %.0f cycles, max %d cycles\n", st.AvgLatencyCycles, st.MaxLatencyCycles)
	fmt.Println("outputs bit-identical to serial inference: yes")

	// The same axis is available on the sweep grid.
	rows, err := nocbt.RunSweep(ctx, nocbt.SweepSpec{
		Platforms:  nocbt.PaperPlatforms()[2:], // 8x8 MC8
		Geometries: []nocbt.Geometry{nocbt.Fixed8()},
		Seeds:      []int64{1},
		Batches:    []int{1, 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSweep with a batch axis (LeNet):")
	fmt.Print(nocbt.SweepReport(rows))
}
