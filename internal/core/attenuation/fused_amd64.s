#include "textflag.h"
#include "go_asm.h"

// AVX2 row body of Model.FusedStress. Each loop iteration runs 8 cells of
// one row; lane l of the iteration at byte offset SI is cell SI/4+l of
// every window, and performs the Go loop's operations for that cell on the
// same operands in the same order. Multiplies and adds are separate
// instructions (no FMA), and MXCSR is left at Go's default, so every lane
// rounds exactly as the Go loop does.
//
// Registers: DI = table (window pointers, then the row's am/cm lane
// vectors), SI = byte offset of the current 8 cells (from 4*off),
// CX = 4*(off+n), Y13 = c1, Y14 = c2, Y15 = dth, R8-R11 = window pointers
// loaded from the table. In the normal-stress phase Y0-Y2 hold exx, eyy,
// ezz, Y3-Y5 their dth-scaled increments aexx, aeyy, aezz, Y6 = dlam,
// Y7 = dl2m and Y8 = trace.

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

// MEMVAR takes the elastic result s and the drive term d of stress f with
// memory variable z (table offsets), and stores
//   zn = am*z + cm*d;  f = s + (zn - z);  z = zn.
// It clobbers d and zn.
#define MEMVAR(f, z, s, d, zn) \
	VMULPS fusedRow_cm(DI), d, d; \
	MOVQ z(DI), R11; \
	VMOVUPS (R11)(SI*1), zn; \
	VMULPS fusedRow_am(DI), zn, zn; \
	VADDPS d, zn, zn; \
	VSUBPS (R11)(SI*1), zn, d; \
	VADDPS d, s, s; \
	MOVQ f(DI), R10; \
	VMOVUPS s, (R10)(SI*1); \
	VMOVUPS zn, (R11)(SI*1)

// NORMAL runs normal stress f with memory variable z, strain e (its own),
// increment ae = dth*e and the other two strains g, h:
//   s = f + dth*(l2m*e + lam*(g+h))
//   zn = am*z + cm*((dl2m*ae + trace) - dlam*ae)
// It clobbers Y9-Y12.
#define NORMAL(f, z, e, ae, g, h) \
	MOVQ fusedRow_l2mr(DI), R8; \
	VMULPS (R8)(SI*1), e, Y9; \
	VADDPS h, g, Y10; \
	MOVQ fusedRow_lamr(DI), R9; \
	VMULPS (R9)(SI*1), Y10, Y10; \
	VADDPS Y10, Y9, Y9; \
	VMULPS Y15, Y9, Y9; \
	MOVQ f(DI), R10; \
	VADDPS (R10)(SI*1), Y9, Y9; \
	VMULPS ae, Y7, Y10; \
	VADDPS Y8, Y10, Y10; \
	VMULPS ae, Y6, Y11; \
	VSUBPS Y11, Y10, Y10; \
	MEMVAR(f, z, Y9, Y10, Y12)

// SHEAR runs shear stress f with memory variable z, modulus mu and
// derivative sum d (table offsets but d, a register):
//   s = f + (dth*mu)*d
//   zn = am*z + cm*(dmu*(dth*d))
// It clobbers t, u and zn.
#define SHEAR(f, z, mu, d, t, u, zn) \
	MOVQ mu(DI), R8; \
	VMULPS (R8)(SI*1), Y15, t; \
	VMULPS d, t, t; \
	MOVQ f(DI), R10; \
	VADDPS (R10)(SI*1), t, t; \
	VMULPS Y15, d, u; \
	MOVQ fusedRow_dmur(DI), R9; \
	VMULPS (R9)(SI*1), u, u; \
	MEMVAR(f, z, t, u, zn)

// func fusedStressRowAVX2(r *fusedRow, off, n int, dth, c1, c2 float32)
TEXT ·fusedStressRowAVX2(SB), NOSPLIT, $0-36
	MOVQ r+0(FP), DI
	MOVQ off+8(FP), SI
	MOVQ n+16(FP), CX
	ADDQ SI, CX
	SHLQ $2, SI
	SHLQ $2, CX
	VBROADCASTSS dth+24(FP), Y15
	VBROADCASTSS c1+28(FP), Y13
	VBROADCASTSS c2+32(FP), Y14

loop:
	// exx, eyy, ezz and aexx, aeyy, aezz.
	D2(fusedRow_uc, fusedRow_um1x, fusedRow_up1x, fusedRow_um2x, Y0, Y3)
	D2(fusedRow_vc, fusedRow_vm1y, fusedRow_vp1y, fusedRow_vm2y, Y1, Y3)
	D2(fusedRow_wc, fusedRow_wm1z, fusedRow_wp1z, fusedRow_wm2z, Y2, Y3)
	VMULPS Y15, Y0, Y3
	VMULPS Y15, Y1, Y4
	VMULPS Y15, Y2, Y5

	// dlam, dl2m = dlam + 2*dmu, trace = dlam*((aexx+aeyy)+aezz).
	MOVQ fusedRow_dlamr(DI), R8
	VMOVUPS (R8)(SI*1), Y6
	MOVQ fusedRow_dmur(DI), R9
	VMOVUPS (R9)(SI*1), Y7
	VADDPS Y7, Y7, Y7
	VADDPS Y7, Y6, Y7
	VADDPS Y4, Y3, Y8
	VADDPS Y5, Y8, Y8
	VMULPS Y6, Y8, Y8

	NORMAL(fusedRow_xxr, fusedRow_zxxr, Y0, Y3, Y1, Y2)
	NORMAL(fusedRow_yyr, fusedRow_zyyr, Y1, Y4, Y0, Y2)
	NORMAL(fusedRow_zzr, fusedRow_zzzr, Y2, Y5, Y0, Y1)

	// dxy = c1*(up1y-uc) + c2*(up2y-um1y) + c1*(vp1x-vc) + c2*(vp2x-vm1x)
	D2(fusedRow_up1y, fusedRow_uc, fusedRow_up2y, fusedRow_um1y, Y0, Y1)
	ADD2(fusedRow_vp1x, fusedRow_vc, fusedRow_vp2x, fusedRow_vm1x, Y0, Y1)
	SHEAR(fusedRow_xyr, fusedRow_zxyr, fusedRow_mxyr, Y0, Y1, Y2, Y3)

	// dxz = c1*(up1z-uc) + c2*(up2z-um1z) + c1*(wp1x-wc) + c2*(wp2x-wm1x)
	D2(fusedRow_up1z, fusedRow_uc, fusedRow_up2z, fusedRow_um1z, Y4, Y5)
	ADD2(fusedRow_wp1x, fusedRow_wc, fusedRow_wp2x, fusedRow_wm1x, Y4, Y5)
	SHEAR(fusedRow_xzr, fusedRow_zxzr, fusedRow_mxzr, Y4, Y5, Y6, Y7)

	// dyz = c1*(vp1z-vc) + c2*(vp2z-vm1z) + c1*(wp1y-wc) + c2*(wp2y-wm1y)
	D2(fusedRow_vp1z, fusedRow_vc, fusedRow_vp2z, fusedRow_vm1z, Y8, Y9)
	ADD2(fusedRow_wp1y, fusedRow_wc, fusedRow_wp2y, fusedRow_wm1y, Y8, Y9)
	SHEAR(fusedRow_yzr, fusedRow_zyzr, fusedRow_myzr, Y8, Y9, Y10, Y11)

	ADDQ $32, SI
	CMPQ SI, CX
	JLT  loop
	VZEROUPPER
	RET
