#!/bin/sh
# Regenerates every table/figure into results/ (gitignored, so created here).
# Each is an entry of one binary, `figures <name>`, which exits 1 if the
# entry's own checks fail or claim 3 breaks on its virt-sync/RapiLog pairs.
# Stops at the first entry that fails, with its exit status.
set -ex
B=./target/release
mkdir -p results
$B/figures table1_residual       > results/table1.txt 2>&1
$B/figures fig2_commit_latency   > results/fig2.txt 2>&1
$B/figures fig3_virt_overhead    > results/fig3.txt 2>&1
$B/figures fig4_tpcc_hdd         > results/fig4.txt 2>&1
$B/figures fig5_tpcc_ssd         > results/fig5.txt 2>&1
$B/figures fig6_engines          > results/fig6.txt 2>&1
$B/figures fig7_tpcb             > results/fig7.txt 2>&1
$B/figures fig8_occupancy        > results/fig8.txt 2>&1
$B/figures tenant_fairness       > results/fig_tenant_fairness.txt 2>&1
$B/figures fig_latency_breakdown > results/fig_latency_breakdown.txt 2>&1
$B/figures table3_groupcommit    > results/table3.txt 2>&1
$B/figures abl_buffer_sweep      > results/abl_buffer.txt 2>&1
$B/figures abl_disk_sweep        > results/abl_disk.txt 2>&1
$B/figures abl_ckpt_sweep        > results/abl_ckpt.txt 2>&1
$B/figures abl_ssd_channels      > results/abl_ssd_channels.txt 2>&1
$B/figures abl_adaptive_batching > results/abl_adaptive_batching.txt 2>&1
$B/figures abl_recovery          > results/abl_recovery.txt 2>&1
TRIALS=${TRIALS:-40} $B/figures table2_durability > results/table2.txt 2>&1
$B/figures table4_disk_faults    > results/table4.txt 2>&1
$B/figures crashpoint_sweep      > results/crashpoints.txt 2>&1
$B/figures failover_sweep        > results/failover.txt 2>&1
echo ALL_FIGURES_DONE
