package nn

import (
	"fmt"

	"tahoma/internal/tensor"
)

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

// planBatch builds the batched plan for layers over a CHW input: each
// Conv2D → ReLU → MaxPool2 run (the block arch.Build emits) becomes one
// convBlock, and ReLU, Flatten and Dense run as themselves. It returns a nil
// plan when some layer has no batched form. The chunk is the largest number
// of samples whose widest conv block working set fits batchChunkBytes,
// clamped to [1, maxBatchChunk].
func planBatch(inShape []int, layers []Layer) (stages []batchStage, chunk int) {
	shape := inShape
	worst := 0
	for i := 0; i < len(layers); i++ {
		switch l := layers[i].(type) {
		case *Conv2D:
			if i+2 >= len(layers) {
				return nil, 0
			}
			_, relu := layers[i+1].(*ReLU)
			_, pool := layers[i+2].(*MaxPool2)
			if !relu || !pool {
				return nil, 0
			}
			padded := (shape[1] + l.K - 1) * (shape[2] + l.K - 1)
			worst = max(worst, 4*(l.InC+1)*padded)
			stages = append(stages, &convBlock{conv: l})
			shape = []int{l.OutC, shape[1] / 2, shape[2] / 2}
			i += 2
			continue
		case batchStage:
			stages = append(stages, l)
		default:
			return nil, 0
		}
		shape, _ = layers[i].OutShape(shape) // NewNetwork validated the chain
	}
	if worst == 0 {
		return stages, maxBatchChunk
	}
	return stages, min(max(batchChunkBytes/worst, 1), maxBatchChunk)
}

// convBlock is the batched form of Conv2D → ReLU → MaxPool2 in one pass
// (an implicit-GEMM convolution with a pooling epilogue). The chunk's
// zero-padded input planes sit channel-major in one buffer, so tap (c,kh,kw)'s
// im2col row is that buffer shifted by c·span + kh·pw + kw, where span is one
// channel's padded planes for the whole chunk and pw the padded row width.
// tensor.ConvTaps sums each filter's taps over padded coordinates: sum j sits
// at the padded top-left corner of its window, so output (y, x) of sample s
// is acc[s·plane + y·pw + x], and the sums of windows that start in a right
// or bottom border are never read. The epilogue (tensor.PoolBiasReLU, one
// call per pooled row) pools the raw sums, then adds the bias and rectifies,
// writing [OutC, B, H/2, W/2] directly.
//
// The sums are bit-identical to Forward's im2col + MatMul: the same products
// in the same order from a +0 start. Pooling before the bias and ReLU is
// bit-identical to Forward's bias → ReLU → pool because v ↦ max(fl(v+b), 0)
// is monotone non-decreasing for finite v, so it commutes with max, and its
// results are never −0, so equal values have equal bits — whichever of a
// tied ±0 pair the pool kept.
type convBlock struct {
	conv *Conv2D
	pad  tensor.Tensor // [InC·B·(H+K-1)·(W+K-1)] zero-padded input planes
	acc  tensor.Tensor // one filter's sums over padded coordinates
	offs []int         // tap shifts into pad, in im2col row order
	out  tensor.Tensor // [OutC, B, H/2, W/2]
}

func (b *convBlock) forwardBatch(x *tensor.Tensor) *tensor.Tensor {
	c := b.conv
	if x.Dims() != 4 || x.Shape[0] != c.InC {
		panic(fmt.Sprintf("nn: conv block input must be [%d B H W], got %v", c.InC, x.Shape))
	}
	bsz, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	k, p := c.K, c.K/2
	pw := w + k - 1
	plane := (h + k - 1) * pw
	span := bsz * plane

	// Plane (ci, s) is at index ci·B+s in both layouts. Only interiors are
	// written: planes start at multiples of plane whatever the batch size,
	// so a reused buffer's borders are still the zeros it was allocated with.
	b.pad.EnsureShape(c.InC * span)
	for pl := 0; pl < c.InC*bsz; pl++ {
		src := x.Data[pl*h*w : (pl+1)*h*w]
		dst := b.pad.Data[pl*plane+p*pw+p:]
		for y := 0; y < h; y++ {
			copy(dst[y*pw:y*pw+w], src[y*w:(y+1)*w])
		}
	}
	b.offs = b.offs[:0]
	for ci := 0; ci < c.InC; ci++ {
		for kh := 0; kh < k; kh++ {
			for kw := 0; kw < k; kw++ {
				b.offs = append(b.offs, ci*span+kh*pw+kw)
			}
		}
	}
	// The last tap's window must end inside pad; the positions this drops
	// are all past the last sample's last output.
	b.acc.EnsureShape(span - (k-1)*pw - (k - 1))
	acc := b.acc.Data

	oh, ow := h/2, w/2
	b.out.EnsureShape(c.OutC, bsz, oh, ow)
	od := b.out.Data
	taps := len(b.offs)
	i := 0
	for f := 0; f < c.OutC; f++ {
		tensor.ConvTaps(acc, c.W.Value.Data[f*taps:(f+1)*taps], b.pad.Data, b.offs)
		bias := c.B.Value.Data[f]
		for s := 0; s < bsz; s++ {
			for oy := 0; oy < oh; oy++ {
				r0 := acc[s*plane+2*oy*pw:]
				tensor.PoolBiasReLU(od[i:i+ow], r0, r0[pw:], bias)
				i += ow
			}
		}
	}
	return &b.out
}
