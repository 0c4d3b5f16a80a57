package lint

// PoolPair enforces the vector/positional-map pooling discipline: buffers
// taken from the shared pools (chunk.GetVector, chunk.GetVectorUncleared and
// the package's own getVector, chunk.GetPositionalMap and the tokenizer's Tokenize, the fused
// kernels' getVectors batch acquire, chunk.DecodeVector, whose page-read
// vectors are pooled too, the engine's asFloats widening, and the operator's
// getText raw-text buffers) must reach a recycle call (PutVector, PutPositionalMap,
// putVectors, putText) or have their ownership transferred. A text buffer
// changes hands as the Data of a chunk.TextChunk — scanner, driver step,
// text chunks buffer, conversion task — so most of its drops are of the
// inconsistent-release kind: a function that hands the text back on one path
// must do so on every path that does not pass it on. The classic violation is an early
// error return between acquire and recycle: the buffer is garbage
// collected instead of reused, silently eroding the pool's allocation
// savings on exactly the paths tests rarely cover. The inconsistent-
// release pass (phase B) specifically hunts that shape: a buffer recycled
// on the main path but dropped by an earlier early exit.
var PoolPair = &Analyzer{
	Name: "poolpair",
	Run:  perUnit(poolSpec.check),
}

var poolSpec = &pairSpec{
	analyzer: "poolpair",
	what:     "pooled buffer",
	verb:     "recycled",
	acquires: map[string]acqKind{
		"GetVector":          {fromResult: true},
		"getVector":          {fromResult: true},
		"GetVectorUncleared": {fromResult: true},
		"GetPositionalMap":   {fromResult: true},
		"Tokenize":           {fromResult: true},
		"parseColumn":        {fromResult: true},
		"getVectors":         {fromResult: true},
		"DecodeVector":       {fromResult: true},
		"asFloats":           {fromResult: true},
		"getText":            {fromResult: true},
	},
	releases: map[string]bool{
		"PutVector":        true,
		"PutPositionalMap": true,
		"putVectors":       true,
		"putText":          true,
	},
	phaseB: true,
}
