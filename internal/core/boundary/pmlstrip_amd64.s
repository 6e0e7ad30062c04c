#include "textflag.h"
#include "go_asm.h"

// AVX2 row bodies of velocitySplits, normalSplits and shearSplits. Each
// iteration runs 8 cells of one row; lane l of the iteration at byte
// offsets (SI, DX, BX) is cell SI/4+l of every field window, DX/4+l of
// every split and BX/4+l of every coefficient row, and performs the Go
// loop's operations for that cell on the same operands in the same order.
// Multiplies and adds are separate instructions (no FMA), and MXCSR is
// left at Go's default, so every lane rounds exactly as the Go loop does.
//
// The body of each kernel is written once, as a macro over a load and a
// store macro: the full iterations expand it with plain moves, and the
// last n mod 8 cells of the row with VMASKMOVPS under the lane mask Y12,
// which neither reads nor writes memory in masked-off lanes. Masked-off
// lanes compute on zeros and their results are discarded.
//
// Registers: DI = operand table, SI/DX/BX = byte offsets of the current 8
// cells in the field windows, splits and coefficient rows, CX = cells
// left, R8/R9 = slice data pointers loaded from the table, Y11 = scratch,
// Y12 = tail lane mask, Y13 = c1, Y14 = c2, Y15 = dth.

// Loads and stores of a full iteration and of the masked tail.
#define LDU(mem, dst) VMOVUPS mem, dst
#define STU(src, mem) VMOVUPS src, mem
#define LDM(mem, dst) VMASKMOVPS mem, Y12, dst
#define STM(src, mem) VMASKMOVPS src, Y12, mem

// D4 sets dst = c1*(w2-w1) + c2*(w3-w0), w0..w3 being the four stencil
// windows whose slice headers start at table offset w; it clobbers t.
#define D4(LD, w, dst, t) \
	MOVQ (w+48)(DI), R8; \
	LD((R8)(SI*1), dst); \
	MOVQ (w+24)(DI), R9; \
	LD((R9)(SI*1), t); \
	VSUBPS t, dst, dst; \
	VMULPS Y13, dst, dst; \
	MOVQ (w+72)(DI), R8; \
	LD((R8)(SI*1), t); \
	MOVQ (w)(DI), R9; \
	LD((R9)(SI*1), Y11); \
	VSUBPS Y11, t, t; \
	VMULPS Y14, t, t; \
	VADDPS t, dst, dst

// SPLIT sets n = dec*split + gain*term for the split whose slice header is
// at table offset sp, with coefficient rows at dec and gain, stores n to
// the split and adds it to acc; it clobbers Y9 and Y10.
#define SPLIT(LD, ST, sp, dec, gain, term, acc) \
	MOVQ (gain)(DI), R8; \
	LD((R8)(BX*1), Y9); \
	VMULPS term, Y9, Y9; \
	MOVQ (dec)(DI), R8; \
	LD((R8)(BX*1), Y10); \
	MOVQ (sp)(DI), R9; \
	LD((R9)(DX*1), Y11); \
	VMULPS Y11, Y10, Y10; \
	VADDPS Y9, Y10, Y10; \
	ST(Y10, (R9)(DX*1)); \
	VADDPS Y10, acc, acc

// VELOCITY: bi = dth*b; split s = dec_s*split_s + gain_s*(bi*D_s);
// out = ((0 + split_x) + split_y) + split_z.
#define VELOCITY(LD, ST) \
	MOVQ velTab_b(DI), R8; \
	LD((R8)(SI*1), Y0); \
	VMULPS Y0, Y15, Y0; \
	VXORPS Y1, Y1, Y1; \
	D4(LD, velTab_w, Y2, Y3); \
	VMULPS Y2, Y0, Y2; \
	SPLIT(LD, ST, velTab_sp, velTab_dec, velTab_gain, Y2, Y1); \
	D4(LD, (velTab_w+96), Y2, Y3); \
	VMULPS Y2, Y0, Y2; \
	SPLIT(LD, ST, (velTab_sp+24), (velTab_dec+24), (velTab_gain+24), Y2, Y1); \
	D4(LD, (velTab_w+192), Y2, Y3); \
	VMULPS Y2, Y0, Y2; \
	SPLIT(LD, ST, (velTab_sp+48), (velTab_dec+48), (velTab_gain+48), Y2, Y1); \
	MOVQ velTab_out(DI), R8; \
	ST(Y1, (R8)(SI*1))

// NSUM(c, tx, ty, tz) advances the three splits of normal stress c with
// terms tx, ty, tz and stores their sum from +0 to out[c]; it clobbers Y7.
#define NSUM(LD, ST, c, tx, ty, tz) \
	VXORPS Y7, Y7, Y7; \
	SPLIT(LD, ST, (normTab_sp+72*c), normTab_dec, normTab_gain, tx, Y7); \
	SPLIT(LD, ST, (normTab_sp+72*c+24), (normTab_dec+24), (normTab_gain+24), ty, Y7); \
	SPLIT(LD, ST, (normTab_sp+72*c+48), (normTab_dec+48), (normTab_gain+48), tz, Y7); \
	MOVQ (normTab_out+24*c)(DI), R8; \
	ST(Y7, (R8)(SI*1))

// NORMAL: exx, eyy, ezz = dth*D_x, dth*D_y, dth*D_z; lx, ly, lz =
// lam*exx, lam*eyy, lam*ezz in Y4-Y6; l2m*exx, l2m*eyy, l2m*ezz in
// Y0-Y2. Stress xx takes (l2m*exx, ly, lz), yy (lx, l2m*eyy, lz) and zz
// (lx, ly, l2m*ezz).
#define NORMAL(LD, ST) \
	D4(LD, normTab_w, Y0, Y3); \
	VMULPS Y0, Y15, Y0; \
	D4(LD, (normTab_w+96), Y1, Y3); \
	VMULPS Y1, Y15, Y1; \
	D4(LD, (normTab_w+192), Y2, Y3); \
	VMULPS Y2, Y15, Y2; \
	MOVQ normTab_lam(DI), R8; \
	LD((R8)(SI*1), Y3); \
	VMULPS Y0, Y3, Y4; \
	VMULPS Y1, Y3, Y5; \
	VMULPS Y2, Y3, Y6; \
	MOVQ normTab_l2m(DI), R8; \
	LD((R8)(SI*1), Y3); \
	VMULPS Y0, Y3, Y0; \
	VMULPS Y1, Y3, Y1; \
	VMULPS Y2, Y3, Y2; \
	NSUM(LD, ST, 0, Y0, Y5, Y6); \
	NSUM(LD, ST, 1, Y4, Y1, Y6); \
	NSUM(LD, ST, 2, Y4, Y5, Y2)

// SHEAR: split s = dec_s*split_s + gain_s*(mu*(dth*D_s)) for the two
// stored splits; out = (0 + split_a) + split_b.
#define SHEAR(LD, ST) \
	MOVQ shearTab_mu(DI), R8; \
	LD((R8)(SI*1), Y0); \
	VXORPS Y1, Y1, Y1; \
	D4(LD, shearTab_w, Y2, Y3); \
	VMULPS Y2, Y15, Y2; \
	VMULPS Y2, Y0, Y2; \
	SPLIT(LD, ST, shearTab_sp, shearTab_dec, shearTab_gain, Y2, Y1); \
	D4(LD, (shearTab_w+96), Y2, Y3); \
	VMULPS Y2, Y15, Y2; \
	VMULPS Y2, Y0, Y2; \
	SPLIT(LD, ST, (shearTab_sp+24), (shearTab_dec+24), (shearTab_gain+24), Y2, Y1); \
	MOVQ shearTab_out(DI), R8; \
	ST(Y1, (R8)(SI*1))

// tailmask<>+32-4*r holds the lane mask of an r-cell tail: r all-ones
// lanes, then zeros.
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $-1
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// ROW runs BODY over the row: full 8-cell iterations, then the masked
// tail. The arguments are the same for all three kernels.
#define ROW(BODY) \
	MOVQ t+0(FP), DI; \
	MOVQ fo+8(FP), SI; \
	MOVQ so+16(FP), DX; \
	MOVQ co+24(FP), BX; \
	MOVQ n+32(FP), CX; \
	SHLQ $2, SI; \
	SHLQ $2, DX; \
	SHLQ $2, BX; \
	VBROADCASTSS dth+40(FP), Y15; \
	VBROADCASTSS c1+44(FP), Y13; \
	VBROADCASTSS c2+48(FP), Y14; \
	CMPQ CX, $8; \
	JLT  tail; \
full: \
	BODY(LDU, STU); \
	ADDQ $32, SI; \
	ADDQ $32, DX; \
	ADDQ $32, BX; \
	SUBQ $8, CX; \
	CMPQ CX, $8; \
	JGE  full; \
tail: \
	TESTQ CX, CX; \
	JZ    done; \
	LEAQ  tailmask<>+32(SB), AX; \
	SHLQ  $2, CX; \
	SUBQ  CX, AX; \
	VMOVUPS (AX), Y12; \
	BODY(LDM, STM); \
done: \
	VZEROUPPER; \
	RET

// func velocitySplitsAVX2(t *velTab, fo, so, co, n int, dth, c1, c2 float32)
TEXT ·velocitySplitsAVX2(SB), NOSPLIT, $0-52
	ROW(VELOCITY)

// func normalSplitsAVX2(t *normTab, fo, so, co, n int, dth, c1, c2 float32)
TEXT ·normalSplitsAVX2(SB), NOSPLIT, $0-52
	ROW(NORMAL)

// func shearSplitsAVX2(t *shearTab, fo, so, co, n int, dth, c1, c2 float32)
TEXT ·shearSplitsAVX2(SB), NOSPLIT, $0-52
	ROW(SHEAR)
