package core

import (
	"oha/internal/artifacts"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
)

// CompileOptionsFor derives the compile options for one image from the
// invariant database alone: inline-cache seeds from its likely callee
// sets. A nil db (sound images, which assume no invariants) yields no
// seeds. Fusion and the analysis fast paths are always on; only the
// engine's own differential tests compile with them off.
func CompileOptionsFor(db *invariants.DB) interp.CompileOptions {
	var opts interp.CompileOptions
	if db == nil {
		return opts
	}
	var seeds map[int][]int
	for site, set := range db.Callees {
		if set == nil || set.IsEmpty() {
			continue
		}
		if seeds == nil {
			seeds = make(map[int][]int, len(db.Callees))
		}
		seeds[site] = set.Slice()
	}
	opts.Callees = seeds
	return opts
}

// compiledCode returns the (memoized) compiled image of prog under the
// given instrumentation masks and speculative options. The image is
// keyed by (program digest, config digest) where the config digest
// covers the masks AND the IC seeds — refining a
// callee-set fact changes the seeds and therefore the key, so a stale
// image can never be served for a refined database. With a nil cache
// it simply compiles.
//
// Compiled code snapshots the masks: callers that mutate a mask in
// place (OptFT.setElidable) must re-derive their image afterwards.
func compiledCode(prog *ir.Program, m interp.Masks, opts interp.CompileOptions, cache *artifacts.Cache) *interp.Code {
	key := artifacts.Key(artifacts.KindCompiled, prog, nil, 0, "cfg:"+m.Digest()+"+"+opts.Digest())
	v, err := cache.Memo(key, artifacts.CompiledCodec(prog), func() (any, error) {
		return interp.CompileWith(prog, m, opts), nil
	})
	if err != nil {
		// Compile cannot fail; Memo only surfaces compute errors, so
		// this is unreachable — but degrade to a direct compile anyway.
		return interp.CompileWith(prog, m, opts)
	}
	return v.(*interp.Code)
}

// BaseImage returns the program's full-instrumentation bytecode image
// (interp.Masks{}: every event kind except the Exec firehose),
// memoized through cache — including its disk tier, so a restarted
// daemon's first profiling job starts with zero compile work. With a
// nil cache it simply compiles.
func BaseImage(prog *ir.Program, cache *artifacts.Cache) *interp.Code {
	return compiledCode(prog, interp.Masks{}, interp.CompileOptions{}, cache)
}
