# Windowed streaming smoke test: `aggregate --stream --window` must
# evict FIFO at flush time and say so, removal directives must shrink
# the stream end to end, a journaled windowed run must `--recover` to
# the same labels, and bad ids / bad flags must fail with useful errors.
file(MAKE_DIRECTORY ${WORK})
# A journal left by a previous run would make `--stream --journal`
# recover-and-append instead of starting fresh; re-runs must not see it.
file(REMOVE ${WORK}/window.journal ${WORK}/window.journal.snap
     ${WORK}/window.journal.snap.tmp)

# Six adds through a window of two: the four oldest clusterings are
# evicted as the window overflows, leaving the two newest alive.
file(WRITE ${WORK}/window.events
"clustering 0 0 1 1 2 2
clustering 0 1 0 1 2 3
flush
clustering 0 1 0 1 2 2
clustering 1 1 0 0 2 2
flush
clustering 0 0 0 1 1 2
clustering 0 1 2 0 1 2
flush
")
execute_process(COMMAND ${CLI} aggregate --stream ${WORK}/window.events
                --window 2 --threads 1 --journal ${WORK}/window.journal
                --out ${WORK}/window.labels
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "windowed stream replay failed (${rc}): ${err}")
endif()
if(NOT err MATCHES "window 2 evicted 4 clusterings \\(2 alive\\)")
  message(FATAL_ERROR "expected the eviction summary line, got: ${err}")
endif()
if(NOT err MATCHES "streamed 2 clusterings of 6 objects")
  message(FATAL_ERROR "expected 2 surviving clusterings, got: ${err}")
endif()

# Recovery must re-derive the evictions while replaying the journal and
# land on the same labels the live run emitted.
execute_process(COMMAND ${CLI} aggregate --recover
                --journal ${WORK}/window.journal --window 2 --threads 1
                --out ${WORK}/recovered.labels
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "windowed recovery failed (${rc}): ${err}")
endif()
if(NOT err MATCHES "recovered [0-9]+ journal records")
  message(FATAL_ERROR "expected a recovery report line, got: ${err}")
endif()
execute_process(COMMAND ${CLI} eval ${WORK}/window.labels
                ${WORK}/recovered.labels
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "adjusted rand index:  1.0000")
  message(FATAL_ERROR "recovered labels should match the live run, "
                      "got: ${out}")
endif()

# Explicit removal directives: drop one clustering and one object by
# stable id; the final dimensions must reflect both.
file(WRITE ${WORK}/removal.events
"clustering 0 0 1 1 2
clustering 0 1 0 1 2
clustering 1 1 0 0 2
remove_clustering 1
remove_object 4
flush
")
execute_process(COMMAND ${CLI} aggregate --stream ${WORK}/removal.events
                --threads 1 --out ${WORK}/removal.labels
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "removal replay failed (${rc}): ${err}")
endif()
if(NOT err MATCHES "streamed 2 clusterings of 4 objects")
  message(FATAL_ERROR "removals should shrink the stream to 2 x 4, "
                      "got: ${err}")
endif()
execute_process(COMMAND ${CLI} eval ${WORK}/removal.labels
                ${WORK}/removal.labels
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "adjusted rand index:  1.0000")
  message(FATAL_ERROR "removal labels should be a valid clustering "
                      "file, got: ${out}")
endif()

# Removing a dead id is InvalidArgument (exit 2) naming the 1-based
# line of the offending directive.
file(WRITE ${WORK}/dead.events
"clustering 0 0
clustering 0 1
remove_clustering 0
remove_clustering 0
")
execute_process(COMMAND ${CLI} aggregate --stream ${WORK}/dead.events
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "dead-id removal should exit 2, got ${rc}")
endif()
if(NOT err MATCHES "line 4")
  message(FATAL_ERROR "dead-id removal should name line 4, got: ${err}")
endif()
if(NOT err MATCHES "already-removed")
  message(FATAL_ERROR "dead-id removal should say already-removed, "
                      "got: ${err}")
endif()

# Flag validation: a non-positive window is rejected up front.
execute_process(COMMAND ${CLI} aggregate --stream ${WORK}/window.events
                --window 0
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--window 0 should exit 2, got ${rc}")
endif()
