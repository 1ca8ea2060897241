# End-to-end CLI smoke test: generate a dataset, aggregate it from CSV,
# evaluate the result file, and check every step's exit code.

# `cli_help` runs only this block (-DHELP=ON): `help` must succeed and,
# printed from the flag table, list every parsed flag in each mode that
# accepts it.
if(HELP)
  execute_process(COMMAND ${CLI} help RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "help failed: ${rc}")
  endif()
  foreach(flag "--delimiter C" "--no-header")
    string(FIND "${out}" "\n  ${flag}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "help should list ${flag}, got: ${out}")
    endif()
  endforeach()
  # The stream section runs from its usage line to the query section's.
  string(FIND "${out}" "\naggregate (--stream" begin)
  string(FIND "${out}" "\nquery --local" end)
  if(begin EQUAL -1 OR end LESS begin)
    message(FATAL_ERROR "help should have a stream section, got: ${out}")
  endif()
  math(EXPR length "${end} - ${begin}")
  string(SUBSTRING "${out}" ${begin} ${length} stream_help)
  foreach(flag "--refine" "--alpha X")
    string(FIND "${stream_help}" "\n  ${flag}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "the stream section of help should list ${flag}, "
                          "got: ${stream_help}")
    endif()
  endforeach()
  return()
endif()

file(MAKE_DIRECTORY ${WORK})
execute_process(COMMAND ${CLI} gen votes --seed 7 --out ${WORK}/votes.csv
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gen failed: ${rc}")
endif()
execute_process(COMMAND ${CLI} aggregate --csv ${WORK}/votes.csv
                --class-column class --algorithm furthest
                --out ${WORK}/agg.labels RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "aggregate failed: ${rc}")
endif()
execute_process(COMMAND ${CLI} eval ${WORK}/agg.labels ${WORK}/agg.labels
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "eval failed: ${rc}")
endif()
if(NOT out MATCHES "adjusted rand index:  1.0000")
  message(FATAL_ERROR "self-evaluation should be ARI 1.0, got: ${out}")
endif()

# Lazy-backend path: same aggregation through --backend lazy --threads 4
# must report the chosen backend and produce the exact clustering the
# dense run wrote.
execute_process(COMMAND ${CLI} aggregate --csv ${WORK}/votes.csv
                --class-column class --algorithm furthest
                --backend lazy --threads 4 --report
                --out ${WORK}/agg_lazy.labels
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "lazy aggregate failed: ${rc}")
endif()
if(NOT err MATCHES "distance backend = lazy, threads = 4")
  message(FATAL_ERROR "report should name the lazy backend, got: ${err}")
endif()
execute_process(COMMAND ${CLI} eval ${WORK}/agg.labels ${WORK}/agg_lazy.labels
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dense-vs-lazy eval failed: ${rc}")
endif()
if(NOT out MATCHES "adjusted rand index:  1.0000")
  message(FATAL_ERROR "dense and lazy backends should produce identical "
                      "clusterings, got: ${out}")
endif()

# Unknown backend must be rejected.
execute_process(COMMAND ${CLI} aggregate --csv ${WORK}/votes.csv
                --class-column class --backend bogus
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown backend should fail")
endif()

# --stats=json telemetry: the dump carries the phase spans and the
# clusterer's convergence trace.
execute_process(COMMAND ${CLI} aggregate --csv ${WORK}/votes.csv
                --class-column class --algorithm localsearch
                --threads 1 --fake-clock --stats=json
                --out ${WORK}/agg_stats.labels
                RESULT_VARIABLE rc ERROR_VARIABLE stats1)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--stats=json aggregate failed: ${rc}")
endif()
foreach(needle "\"aggregate\"" "\"build_instance\"" "\"cluster\""
               "localsearch")
  if(NOT stats1 MATCHES "${needle}")
    message(FATAL_ERROR "--stats=json should mention ${needle}, "
                        "got: ${stats1}")
  endif()
endforeach()

# Byte-stability: the same run under --fake-clock --threads 1 must emit
# byte-identical JSON (the docs/observability.md determinism contract).
execute_process(COMMAND ${CLI} aggregate --csv ${WORK}/votes.csv
                --class-column class --algorithm localsearch
                --threads 1 --fake-clock --stats=json
                --out ${WORK}/agg_stats.labels
                RESULT_VARIABLE rc ERROR_VARIABLE stats2)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "second --stats=json aggregate failed: ${rc}")
endif()
if(NOT stats1 STREQUAL stats2)
  message(FATAL_ERROR "--stats=json under --fake-clock should be "
                      "byte-stable across runs")
endif()

# Table mode and flag validation.
execute_process(COMMAND ${CLI} aggregate --csv ${WORK}/votes.csv
                --class-column class --algorithm furthest --stats=table
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--stats=table aggregate failed: ${rc}")
endif()
execute_process(COMMAND ${CLI} aggregate --csv ${WORK}/votes.csv
                --class-column class --stats=bogus
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "--stats=bogus should be rejected")
endif()

# Flag-table regressions. A boolean flag never takes the next argument
# as its value: `--fold c1 c2 c3` aggregates all three label files, the
# same as `c1 c2 c3 --fold`, and `--report c1 ...` reads c1 too.
file(WRITE ${WORK}/c1.labels "0 0 1 1 2 2 0 0 1 1 2 2\n")
file(WRITE ${WORK}/c2.labels "0 0 1 1 1 2 0 0 1 1 1 2\n")
file(WRITE ${WORK}/c3.labels "0 0 0 1 2 2 0 0 0 1 2 2\n")
set(FILES ${WORK}/c1.labels ${WORK}/c2.labels ${WORK}/c3.labels)
execute_process(COMMAND ${CLI} aggregate ${FILES} --fold
                RESULT_VARIABLE rc OUTPUT_VARIABLE fold_last ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "aggregate FILES --fold failed: ${rc}")
endif()
execute_process(COMMAND ${CLI} aggregate --fold ${FILES}
                RESULT_VARIABLE rc OUTPUT_VARIABLE fold_first ERROR_QUIET)
if(NOT rc EQUAL 0 OR NOT fold_first STREQUAL fold_last)
  message(FATAL_ERROR "--fold before the label files should aggregate "
                      "all of them: '${fold_first}' vs '${fold_last}'")
endif()
execute_process(COMMAND ${CLI} aggregate --report ${FILES}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT err MATCHES "aggregated 3 clusterings")
  message(FATAL_ERROR "--report should not swallow a label file, got "
                      "${rc}: ${err}")
endif()

# Folding keeps the optimum when duplicates are far apart: objects 0 and
# 1 share the signature (?, ?, 0), at distance 2/3 > 1/2 under --coin-p 0,
# so the index must leave them unfolded and EXACT must find D = 2 as it
# does unfolded (grouping them forces D = 3).
file(WRITE ${WORK}/m1.labels "? ? 0 1 2\n")
file(WRITE ${WORK}/m2.labels "? ? 0 1 2\n")
file(WRITE ${WORK}/m3.labels "0 0 1 1 2\n")
foreach(fold "" "--fold")
  execute_process(COMMAND ${CLI} aggregate ${WORK}/m1.labels
                  ${WORK}/m2.labels ${WORK}/m3.labels --algorithm exact
                  --coin-p 0 ${fold}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 OR NOT err MATCHES "D\\(C\\) = 2\\.0")
    message(FATAL_ERROR "exact --coin-p 0 ${fold} should find D(C) = 2.0, "
                        "got ${rc}: ${err}")
  endif()
endforeach()

# Unknown flags and malformed values are InvalidArgument (exit 2), never
# silently ignored or read as 0. --coin-p is a probability: 7 would make
# expected disagreements negative.
foreach(bad "--algoritm;pivot" "--threads;abc" "--threads;-3"
            "--alpha;xyz" "--coin-p;7" "--coin-p;-0.5")
  execute_process(COMMAND ${CLI} aggregate --csv ${WORK}/votes.csv
                  --class-column class ${bad}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "aggregate ${bad} should exit 2, got ${rc}")
  endif()
endforeach()
execute_process(COMMAND ${CLI} gen votes --rows zz --out ${WORK}/zz.csv
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "gen --rows zz should exit 2, got ${rc}")
endif()
# A gen flag the dataset cannot use exits 2 instead of being ignored:
# votes and mushrooms have a fixed size, and only gaussian has
# components.
foreach(bad "votes;--rows;100" "mushrooms;--rows;100" "votes;--clusters;3"
            "mushrooms;--clusters;3" "census;--clusters;3")
  execute_process(COMMAND ${CLI} gen ${bad} --out ${WORK}/ignored.csv
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "gen ${bad} should exit 2, got ${rc}")
  endif()
endforeach()
# --delimiter is exactly one character. The 'a'-separated file parses
# under the first character of 'ab', so only the flag check rejects it.
file(WRITE ${WORK}/a_sep.csv "xay\n1a2\n3a4\n")
foreach(bad "${WORK}/votes.csv;--delimiter=" "${WORK}/a_sep.csv;--delimiter;ab")
  execute_process(COMMAND ${CLI} aggregate --csv ${bad}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "aggregate --csv ${bad} should exit 2, got ${rc}")
  endif()
endforeach()

# --algorithm picks its clusterer by the name's position in the flag
# table's choice list, which follows AggregationAlgorithm: every name
# must reach the clusterer it names.
foreach(pair "best;BESTCLUSTERING" "balls;BALLS"
             "agglomerative;AGGLOMERATIVE" "furthest;FURTHEST"
             "localsearch;LOCALSEARCH" "pivot;CC-PIVOT"
             "annealing;ANNEALING" "majority;MAJORITY" "exact;EXACT")
  list(GET pair 0 name)
  list(GET pair 1 shown)
  execute_process(COMMAND ${CLI} aggregate --algorithm ${name} ${FILES}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 OR NOT err MATCHES "objects with ${shown}:")
    message(FATAL_ERROR "--algorithm ${name} should run ${shown}, got "
                        "${rc}: ${err}")
  endif()
endforeach()

# The input sources are exclusive: the CSV-only flags need --csv, and
# --csv takes neither label files nor --weights. Each combination exits
# 2 instead of silently ignoring a flag.
foreach(bad "--class-column;class" "--delimiter;|" "--no-header")
  execute_process(COMMAND ${CLI} aggregate ${FILES} ${bad}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "aggregate FILES ${bad} should exit 2, got ${rc}")
  endif()
endforeach()
foreach(extra "${WORK}/c1.labels" "--weights;1,1,1")
  execute_process(COMMAND ${CLI} aggregate --csv ${WORK}/votes.csv
                  --class-column class ${extra}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "aggregate --csv ... ${extra} should exit 2, "
                        "got ${rc}")
  endif()
endforeach()
