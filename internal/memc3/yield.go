package memc3

import "runtime"

func spinYield() { runtime.Gosched() }
