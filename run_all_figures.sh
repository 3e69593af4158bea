#!/bin/sh
# Regenerates every table/figure into results/ (gitignored, so created here).
# The paper's figures are the functions of one binary, `figures <name>`; each
# also checks claim 3 on its virt-sync/RapiLog pairs and fails if one breaks.
# Stops at the first binary that fails, with its exit status.
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
$B/fig_tenant_fairness           > results/fig_tenant_fairness.txt 2>&1
$B/figures fig_latency_breakdown > results/fig_latency_breakdown.txt 2>&1
$B/figures table3_groupcommit    > results/table3.txt 2>&1
$B/figures abl_buffer_sweep      > results/abl_buffer.txt 2>&1
$B/figures abl_disk_sweep        > results/abl_disk.txt 2>&1
$B/figures abl_ckpt_sweep        > results/abl_ckpt.txt 2>&1
$B/abl_ssd_channels              > results/abl_ssd_channels.txt 2>&1
$B/abl_adaptive_batching         > results/abl_adaptive_batching.txt 2>&1
$B/abl_recovery                  > results/abl_recovery.txt 2>&1
TRIALS=${TRIALS:-40} $B/table2_durability > results/table2.txt 2>&1
$B/table4_disk_faults            > results/table4.txt 2>&1
$B/crashpoint_sweep              > results/crashpoints.txt 2>&1
$B/failover_sweep                > results/failover.txt 2>&1
echo ALL_FIGURES_DONE
