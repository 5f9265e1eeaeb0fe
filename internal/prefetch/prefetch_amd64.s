#include "textflag.h"

// func Line(p *uint64)
TEXT ·Line(SB), NOSPLIT|NOFRAME, $0-8
	MOVQ	p+0(FP), AX
	PREFETCHT0	(AX)
	RET
