package nn

import "tahoma/internal/tensor"

// batchStage is one step of a network's batched inference plan. Batches
// travel channel-major: spatial stages exchange [C, B, H, W] tensors (sample
// s of channel c is the contiguous H·W plane at offset (c·B+s)·H·W), and the
// dense stages exchange [Features, B] matrices, which turns a Dense layer
// over a batch into a single GEMM. The returned tensor is owned by the stage
// and overwritten on the next call; its scratch grows to the largest batch
// seen and is reused. A stage may rectify its input in place and return it
// (ReLU does): batch inputs are dead once consumed. Batched stages are
// inference-only and record nothing for Backward.
//
// Bit-parity contract: column s of the final output carries exactly the bits
// Forward produces for sample s, at every batch size.
type batchStage interface {
	forwardBatch(x *tensor.Tensor) *tensor.Tensor
}

// batchChunkBytes caps the working set of the widest conv block in one
// batch chunk: its zero-padded input planes plus one filter's accumulator.
// Chunking the batch through the stages keeps that set cache-resident while
// every filter re-reads the input, and bounds a worker's batch scratch to a
// constant regardless of the engine's batch size.
const batchChunkBytes = 128 << 10

// maxBatchChunk caps the chunk for networks with small or no conv blocks;
// the dense GEMMs gain nothing from more than 16 columns.
const maxBatchChunk = 16

// step is one stage of a network's plan: a layer, or a convBlock standing
// for three. Forward and Backward are Layer's.
type step interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(dy *tensor.Tensor) *tensor.Tensor
}

// plan compiles layers over a CHW input into a network's plan: each Conv2D →
// ReLU → MaxPool2 run (the block arch.Build emits) becomes one convBlock,
// and every other layer runs as itself. Forward and Backward walk steps one
// sample at a time, and ForwardBatch walks the same steps' batched forms,
// which exist (batched) unless some step has none (a conv outside a block, a
// pool on its own). The chunk is the largest number of samples whose widest
// conv block working set fits batchChunkBytes, clamped to [1, maxBatchChunk].
func plan(inShape []int, layers []Layer) (steps []step, batched bool, chunk int) {
	shape := inShape
	worst := 0
	batched = true
	for i := 0; i < len(layers); i++ {
		if c, ok := layers[i].(*Conv2D); ok && i+2 < len(layers) {
			_, relu := layers[i+1].(*ReLU)
			_, pool := layers[i+2].(*MaxPool2)
			if relu && pool {
				padded := (shape[1] + c.K - 1) * (shape[2] + c.K - 1)
				worst = max(worst, 4*(c.InC+1)*padded)
				steps = append(steps, &convBlock{conv: c})
				shape = []int{c.OutC, shape[1] / 2, shape[2] / 2}
				i += 2
				continue
			}
		}
		steps = append(steps, layers[i])
		_, ok := layers[i].(batchStage)
		batched = batched && ok
		shape, _ = layers[i].OutShape(shape) // NewNetwork validated the chain
	}
	if worst == 0 {
		return steps, batched, maxBatchChunk
	}
	return steps, batched, min(max(batchChunkBytes/worst, 1), maxBatchChunk)
}
