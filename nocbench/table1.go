package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"time"

	"nocbt"
	"nocbt/internal/bitutil"
	"nocbt/internal/core"
	"nocbt/internal/dnn"
	"nocbt/internal/quant"
	"nocbt/internal/train"
)

// trainedDigests pins the SHA-256 of nocbt.TrainedLeNet(seed)'s parameters
// (float32 bits, little-endian, in Model.Params order). A substrate change
// that alters training arithmetic changes these; seeds without a pin are
// checked for run-to-run repeatability only.
var trainedDigests = map[int64]string{
	1:  "e3ac52e80ce0d13390fe0a71622edd0b3ed315d3f43bec9e88f4a4a109944aa5",
	11: "3d09862cb52337457da929b0489934b7589f7baa2531c91e5384eeae222d2f85",
	12: "778be6d31615856b8775af92377a478b4da392820cf1e4d1ecfaa3f9af833619",
	13: "f7b74a72700771a93ace691934b60b6282a66717fa202a9fbc6acdbcab42f691",
	14: "8b605b932c4b88bc26fdbd9057a55b68ea72ba1fb1743a4ab6d749e87d0923b6",
	15: "01cf165d59061f4751d32b99ebb9c4a94d3cbff31f923e438545313fd1afef83",
	21: "c9a1c42b438ee5f2ddc8fe10375d03315dbd46c715d11e315af810812b77420a",
	22: "4e0eff6f421379b99004367df0839d601db4fcc9d908575d2ab582fca66a562d",
	23: "5669527f3e6bca718f18d673eb6818dac33363d775a7b31fdaa45c980441696c",
	24: "b5ac14d508da0cf00a7d656d6397d24fa87d7712794a5fc5757bd07988f73f2f",
	25: "4a855690887a2de3001fc688c7809437f9886182606e2a0c11491b5227856e93",
	26: "3414128f0c1bce29a114f5df0fea9b4d84e10bd9fcd382191b64526175f6e383",
	27: "93103bf7430723218328cc4decf08364b03dd49365b9843144c11b0cda277c0b",
	28: "6b91f481085647bc632d7262396c499dc6156fd51316da648f33b09edb3a8474",
	29: "d35e997b6dbcdc55d022a86f4aca308efabe02ac77afea0e30e5622b3b68dae5",
	30: "69863e0138f3e70173063f1bc1182b1a5bf7c4342718dbb50d2eab6d5dfe20dd",
}

// Training constants of nocbt.TrainedLeNet, which the traced run's replay
// must repeat; the digest check proves it did.
const (
	trainSamples = 300
	trainEpochs  = 8
	trainLR      = 0.002
)

// runTable1 measures the paper's without-NoC experiment on trained
// weights: set-up is the cold LeNet training every trained process pays,
// and each op is one Tab. I at the paper's size.
func runTable1(ctx context.Context, r *run) error {
	cfg := nocbt.DefaultTable1Config()
	cfg.Seed = r.seed
	var (
		digest string
		first  []nocbt.Table1Row
	)
	s := spec{
		reps: 1,
		setup: func(ctx context.Context) error {
			var m *nocbt.Model
			err := r.span("TrainedLeNet", "train", r.tid, func() error {
				m = nocbt.TrainedLeNet(r.seed)
				return nil
			})
			digest = paramDigest(m)
			r.checkDigest("trained", digest)
			return err
		},
		minOps:  1,
		primary: "op",
		op: func(ctx context.Context) []timing {
			return r.timeOp("op", func() error {
				var rows []nocbt.Table1Row
				r.span("Table1", "nocbt", r.tid, func() error {
					rows = nocbt.Table1(cfg)
					return nil
				})
				if first == nil {
					first = rows
					return checkTable1(rows)
				}
				if !reflect.DeepEqual(rows, first) {
					return fmt.Errorf("repeated Table1 returned different rows")
				}
				return nil
			})
		},
	}
	untraced, err := r.measure(ctx, s)
	if err != nil {
		return err
	}
	r.counts["rows"] = int64(len(first))
	if !r.traced {
		r.setE2E(s, untraced)
		return nil
	}

	if err := r.startTrace(); err != nil {
		return err
	}
	replay := s
	replay.setup = func(ctx context.Context) error { return replayTraining(r, digest) }
	traced, err := r.measure(ctx, replay)
	if err != nil {
		return err
	}
	if err := replayTable1(r, cfg, first); err != nil {
		return err
	}
	return r.finishTrace(s, untraced, traced)
}

// checkTable1 checks the shape of a Tab. I result: four rows, and the
// ordered stream below the baseline on every row.
func checkTable1(rows []nocbt.Table1Row) error {
	if len(rows) != 4 {
		return fmt.Errorf("Table1 returned %d rows, want 4", len(rows))
	}
	for _, row := range rows {
		if !(row.OrderedBT < row.BaselineBT) || row.Flits <= 1 {
			return fmt.Errorf("Table1 %s: ordered %.4f not below baseline %.4f BT/flit",
				row.Source.Name, row.OrderedBT, row.BaselineBT)
		}
	}
	return nil
}

// checkDigest compares a trained-weight digest with its pin and records it.
func (r *run) checkDigest(what, digest string) {
	r.mu.Lock()
	r.digests[what] = digest
	r.mu.Unlock()
	if want, ok := trainedDigests[r.seed]; ok && digest != want {
		r.problem("%s LeNet seed %d: weight digest %s, pinned %s", what, r.seed, digest, want)
	}
}

func paramDigest(m *nocbt.Model) string {
	h := sha256.New()
	var b [4]byte
	for _, p := range m.Params() {
		for _, v := range p.Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// replayTraining repeats nocbt.TrainedLeNet step by step through
// train.NewTrainer and Trainer.Step under spans, and checks it reproduces
// the trained weights bit for bit.
func replayTraining(r *run, want string) error {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(r.seed))
	m := dnn.LeNet(rng)
	ds := train.SyntheticDigits(trainSamples, m.InShape, rng)
	tr := train.NewTrainer(m, train.Config{LR: trainLR, Epochs: trainEpochs})
	var steps []float64
	for e := 0; e < trainEpochs; e++ {
		ds.Shuffle(rng)
		for _, s := range ds.Samples {
			st := time.Now()
			r.span("Trainer.Step", "train", r.tid, func() error {
				tr.Step(s)
				return nil
			})
			steps = append(steps, ms(time.Since(st)))
		}
	}
	r.layer["train.samples_per_s"] = float64(len(steps)) / time.Since(t0).Seconds()
	r.layer["train.step_ms"] = median(steps)
	got := paramDigest(m)
	r.checkDigest("replayed", got)
	if got != want {
		r.problem("training replay digest %s differs from TrainedLeNet's %s", got, want)
	}
	return nil
}

// replayTable1 repeats one Tab. I through core.OrderDescending,
// core.PackSequential and core.StreamTransitions under spans, checks each
// row's BT per flit, and records the core layer's time per Tab. I.
func replayTable1(r *run, cfg nocbt.Table1Config, want []nocbt.Table1Row) error {
	flitsPerPacket := (cfg.KernelSize + cfg.LanesPerFlit - 1) / cfg.LanesPerFlit
	padded := flitsPerPacket * cfg.LanesPerFlit
	var orderNS, transNS time.Duration
	for i, src := range nocbt.Table1Sources() {
		width := src.Format.Bits()
		words := table1Words(src, cfg.Packets*cfg.KernelSize, cfg.Seed)
		stream := make([]bitutil.Word, 0, cfg.Packets*padded)
		for p := 0; p < cfg.Packets; p++ {
			stream = append(stream, words[p*cfg.KernelSize:(p+1)*cfg.KernelSize]...)
			for k := cfg.KernelSize; k < padded; k++ {
				stream = append(stream, 0)
			}
		}
		var base, ordered [][]bitutil.Word
		r.span("core.PackSequential", "core", r.tid, func() error {
			base = core.PackSequential(stream, cfg.LanesPerFlit, 0)
			return nil
		})
		t0 := time.Now()
		var sorted []bitutil.Word
		r.span("core.OrderDescending", "core", r.tid, func() error {
			sorted, _ = core.OrderDescending(stream, width)
			return nil
		})
		orderNS += time.Since(t0)
		r.span("core.PackSequential", "core", r.tid, func() error {
			ordered = core.PackSequential(sorted, cfg.LanesPerFlit, 0)
			return nil
		})
		var baseBT, ordBT int
		t0 = time.Now()
		r.span("core.StreamTransitions", "core", r.tid, func() error {
			baseBT = core.StreamTransitions(base, width)
			ordBT = core.StreamTransitions(ordered, width)
			return nil
		})
		transNS += time.Since(t0)
		n := float64(len(base) - 1)
		if i >= len(want) || float64(baseBT)/n != want[i].BaselineBT || float64(ordBT)/n != want[i].OrderedBT {
			r.problem("core replay %s: BT/flit %.6f/%.6f differs from Table1", src.Name, float64(baseBT)/n, float64(ordBT)/n)
		}
	}
	r.layer["core.order_ms"] = ms(orderNS)
	r.layer["core.transitions_ms"] = ms(transNS)
	return nil
}

// table1Words draws a Tab. I weight population the way nocbt.Table1 does:
// values sampled from LeNet's weights, per-layer quantized for fixed-8.
func table1Words(src nocbt.WeightSource, count int, seed int64) []bitutil.Word {
	model := nocbt.LeNet(seed)
	if src.Trained {
		model = nocbt.TrainedLeNet(seed)
	}
	rng := rand.New(rand.NewSource(seed + 1000))
	out := make([]bitutil.Word, count)
	if src.Format == bitutil.Fixed8 {
		var qs []int8
		for _, layer := range model.LayerWeightSlices() {
			qs = append(qs, quant.Choose(layer).QuantizeSlice(layer)...)
		}
		for i := range out {
			out[i] = bitutil.Fixed8Word(qs[rng.Intn(len(qs))])
		}
		return out
	}
	weights := model.WeightValues()
	for i := range out {
		out[i] = bitutil.Float32Word(weights[rng.Intn(len(weights))])
	}
	return out
}
