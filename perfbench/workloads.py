"""The benchmark's workloads: experiment files generated from a seed.

The program under test only ever sees the generated file; the seed
becomes the experiment master seed (every job and run seed derives from
it), so one seed always yields the same inputs.

  con_wcet    Figure-1 CON grid (examples/experiments/paper_con.exp):
              kernels x {rp, cba, hcba} under Table-I virtual contenders,
              batch 8 on 4 threads, raw series, pWCET, CSV + JSON sinks.
  iso_stream  Figure-1 ISO grid (paper_iso.exp): the same 12 jobs in
              isolation, batch 1, 1 thread, streaming digests; run.py
              writes a slice checkpoint and resumes from it.
  mesh_corun  mesh_congestion.exp: canrdr + 8 saturating streams on a 3x3
              mesh, bridge_depth x setup x arbiter, batch 4, 1 thread.

Run counts are scaled so one pass takes about a second (mesh_corun: a
few seconds); the modelled caches start cold in every run, as in the
paper's protocol.
"""

KERNELS = "cacheb canrdr matrix tblook"

WORKLOADS = {
    "con_wcet": {
        "checkpoint": False,
        "text": f"""\
name     = con-wcet
scenario = con
sweep kernel = {KERNELS}
sweep setup  = rp cba hcba
cores    = 4
runs     = 16
batch    = 8
threads  = 4
retain   = raw
pwcet    = on
seed     = {{seed}}
csv      = con_wcet.csv
json     = con_wcet.json
""",
    },
    "iso_stream": {
        "checkpoint": True,
        "text": f"""\
name     = iso-stream
scenario = iso
sweep kernel = {KERNELS}
sweep setup  = rp cba hcba
cores    = 4
runs     = 8
batch    = 1
threads  = 1
retain   = stream
seed     = {{seed}}
json     = iso_stream.json
""",
    },
    "mesh_corun": {
        "checkpoint": False,
        "text": """\
name     = mesh-corun
scenario = corun
kernel   = canrdr
core1    = stream:2
core2    = stream:2
core3    = stream:2
core4    = stream:2
core5    = stream:2
core6    = stream:2
core7    = stream:2
core8    = stream:2
topology = mesh:3x3
sweep bridge_depth = unbounded 1
sweep setup = rp hcba
sweep arbiter = rr drr da
cores    = 9
runs     = 2
batch    = 4
threads  = 1
seed     = {seed}
csv      = mesh_corun.csv
json     = mesh_corun.json
metrics  = tua.cycles,seg.backpressure_stalls,seg.queue_depth_max,seg.queue_depth_mean,seg.hop_histogram,seg.remote_fraction
""",
    },
}


def generate(workload, seed):
    """(experiment text, whether the run checkpoints and resumes)."""
    if seed < 0:
        raise ValueError("seeds are non-negative integers")
    entry = WORKLOADS[workload]
    return entry["text"].format(seed=seed), entry["checkpoint"]
