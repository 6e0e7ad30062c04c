#include "textflag.h"
#include "go_asm.h"

// AVX2 row bodies of velocityFused and stressFused. Each loop iteration
// runs 8 cells of one row; lane l of the iteration at byte offset SI is
// cell SI/4+l of every window, and performs the Go loop's operations for
// that cell on the same operands in the same order. Multiplies and adds
// are separate instructions (no FMA), and MXCSR is left at Go's default,
// so every lane rounds exactly as the Go loop does.
//
// Registers: DI = window pointer table, SI = byte offset of the current 8
// cells (from 4*off), CX = 4*(off+n), Y13 = c1, Y14 = c2, Y15 = dth,
// R8-R10 = window pointers loaded from the table.

// DIFF sets dst = cf*(p-m), p and m being table offsets of two windows.
#define DIFF(cf, p, m, dst) \
	MOVQ p(DI), R8; \
	MOVQ m(DI), R9; \
	VMOVUPS (R8)(SI*1), dst; \
	VSUBPS (R9)(SI*1), dst, dst; \
	VMULPS cf, dst, dst

// D2 sets dst = c1*(p1-m1) + c2*(p2-m2).
#define D2(p1, m1, p2, m2, dst, tmp) \
	DIFF(Y13, p1, m1, dst); \
	DIFF(Y14, p2, m2, tmp); \
	VADDPS tmp, dst, dst

// ADD2 adds c1*(p1-m1), then c2*(p2-m2), to dst.
#define ADD2(p1, m1, p2, m2, dst, tmp) \
	DIFF(Y13, p1, m1, tmp); \
	VADDPS tmp, dst, dst; \
	DIFF(Y14, p2, m2, tmp); \
	VADDPS tmp, dst, dst

// UPDATE sets f += (dth*coef)*sum, f and coef being table offsets; it
// clobbers tmp and sum.
#define UPDATE(f, coef, sum, tmp) \
	MOVQ coef(DI), R8; \
	VMULPS (R8)(SI*1), Y15, tmp; \
	VMULPS sum, tmp, sum; \
	MOVQ f(DI), R9; \
	VADDPS (R9)(SI*1), sum, sum; \
	VMOVUPS sum, (R9)(SI*1)

// NORMAL sets f += dth*(l2m*e + lam*(g+h)) for a normal stress f with
// strains e (its own) and g, h (the other two); it clobbers Y3 and Y4.
#define NORMAL(f, e, g, h) \
	MOVQ stressRow_l2mr(DI), R8; \
	VMULPS (R8)(SI*1), e, Y3; \
	VADDPS h, g, Y4; \
	MOVQ stressRow_lamr(DI), R9; \
	VMULPS (R9)(SI*1), Y4, Y4; \
	VADDPS Y4, Y3, Y3; \
	VMULPS Y15, Y3, Y3; \
	MOVQ f(DI), R10; \
	VADDPS (R10)(SI*1), Y3, Y3; \
	VMOVUPS Y3, (R10)(SI*1)

// func velocityRowAVX2(r *velRow, off, n int, dth, c1, c2 float32)
TEXT ·velocityRowAVX2(SB), NOSPLIT, $0-36
	MOVQ r+0(FP), DI
	MOVQ off+8(FP), SI
	MOVQ n+16(FP), CX
	ADDQ SI, CX
	SHLQ $2, SI
	SHLQ $2, CX
	VBROADCASTSS dth+24(FP), Y15
	VBROADCASTSS c1+28(FP), Y13
	VBROADCASTSS c2+32(FP), Y14

vloop:
	// ur += dth*bxr*(c1*(xxp1x-xxc) + c2*(xxp2x-xxm1x) + c1*(xyc-xym1y) +
	//                c2*(xyp1y-xym2y) + c1*(xzc-xzm1z) + c2*(xzp1z-xzm2z))
	D2(velRow_xxp1x, velRow_xxc, velRow_xxp2x, velRow_xxm1x, Y0, Y1)
	ADD2(velRow_xyc, velRow_xym1y, velRow_xyp1y, velRow_xym2y, Y0, Y1)
	ADD2(velRow_xzc, velRow_xzm1z, velRow_xzp1z, velRow_xzm2z, Y0, Y1)
	UPDATE(velRow_ur, velRow_bxr, Y0, Y1)

	// vr += dth*byr*(c1*(xyc-xym1x) + c2*(xyp1x-xym2x) + c1*(yyp1y-yyc) +
	//                c2*(yyp2y-yym1y) + c1*(yzc-yzm1z) + c2*(yzp1z-yzm2z))
	D2(velRow_xyc, velRow_xym1x, velRow_xyp1x, velRow_xym2x, Y2, Y3)
	ADD2(velRow_yyp1y, velRow_yyc, velRow_yyp2y, velRow_yym1y, Y2, Y3)
	ADD2(velRow_yzc, velRow_yzm1z, velRow_yzp1z, velRow_yzm2z, Y2, Y3)
	UPDATE(velRow_vr, velRow_byr, Y2, Y3)

	// wr += dth*bzr*(c1*(xzc-xzm1x) + c2*(xzp1x-xzm2x) + c1*(yzc-yzm1y) +
	//                c2*(yzp1y-yzm2y) + c1*(zzp1z-zzc) + c2*(zzp2z-zzm1z))
	D2(velRow_xzc, velRow_xzm1x, velRow_xzp1x, velRow_xzm2x, Y4, Y5)
	ADD2(velRow_yzc, velRow_yzm1y, velRow_yzp1y, velRow_yzm2y, Y4, Y5)
	ADD2(velRow_zzp1z, velRow_zzc, velRow_zzp2z, velRow_zzm1z, Y4, Y5)
	UPDATE(velRow_wr, velRow_bzr, Y4, Y5)

	ADDQ $32, SI
	CMPQ SI, CX
	JLT  vloop
	VZEROUPPER
	RET

// func stressRowAVX2(r *stressRow, off, n int, dth, c1, c2 float32)
TEXT ·stressRowAVX2(SB), NOSPLIT, $0-36
	MOVQ r+0(FP), DI
	MOVQ off+8(FP), SI
	MOVQ n+16(FP), CX
	ADDQ SI, CX
	SHLQ $2, SI
	SHLQ $2, CX
	VBROADCASTSS dth+24(FP), Y15
	VBROADCASTSS c1+28(FP), Y13
	VBROADCASTSS c2+32(FP), Y14

sloop:
	// exx, eyy, ezz in Y0, Y1, Y2.
	D2(stressRow_uc, stressRow_um1x, stressRow_up1x, stressRow_um2x, Y0, Y3)
	D2(stressRow_vc, stressRow_vm1y, stressRow_vp1y, stressRow_vm2y, Y1, Y3)
	D2(stressRow_wc, stressRow_wm1z, stressRow_wp1z, stressRow_wm2z, Y2, Y3)
	NORMAL(stressRow_xxr, Y0, Y1, Y2)
	NORMAL(stressRow_yyr, Y1, Y0, Y2)
	NORMAL(stressRow_zzr, Y2, Y0, Y1)

	// xyr += dth*mxyr*(c1*(up1y-uc) + c2*(up2y-um1y) + c1*(vp1x-vc) + c2*(vp2x-vm1x))
	D2(stressRow_up1y, stressRow_uc, stressRow_up2y, stressRow_um1y, Y5, Y6)
	ADD2(stressRow_vp1x, stressRow_vc, stressRow_vp2x, stressRow_vm1x, Y5, Y6)
	UPDATE(stressRow_xyr, stressRow_mxyr, Y5, Y6)

	// xzr += dth*mxzr*(c1*(up1z-uc) + c2*(up2z-um1z) + c1*(wp1x-wc) + c2*(wp2x-wm1x))
	D2(stressRow_up1z, stressRow_uc, stressRow_up2z, stressRow_um1z, Y7, Y8)
	ADD2(stressRow_wp1x, stressRow_wc, stressRow_wp2x, stressRow_wm1x, Y7, Y8)
	UPDATE(stressRow_xzr, stressRow_mxzr, Y7, Y8)

	// yzr += dth*myzr*(c1*(vp1z-vc) + c2*(vp2z-vm1z) + c1*(wp1y-wc) + c2*(wp2y-wm1y))
	D2(stressRow_vp1z, stressRow_vc, stressRow_vp2z, stressRow_vm1z, Y9, Y10)
	ADD2(stressRow_wp1y, stressRow_wc, stressRow_wp2y, stressRow_wm1y, Y9, Y10)
	UPDATE(stressRow_yzr, stressRow_myzr, Y9, Y10)

	ADDQ $32, SI
	CMPQ SI, CX
	JLT  sloop
	VZEROUPPER
	RET
