# Figure-path smoke test, run under ctest: the gnnmark verbs print
# every paper table and figure and the takeaway studies. Invoke as
#   cmake -DGNNMARK_BIN=<path-to-gnnmark> -P figure_smoke.cmake

if(NOT DEFINED GNNMARK_BIN)
    message(FATAL_ERROR "pass -DGNNMARK_BIN=...")
endif()

# expect_titles(<title list> <gnnmark args>...): the run exits 0 and
# its stdout holds every title. The stdout is left in `last_out`.
function(expect_titles titles)
    list(JOIN ARGN " " args)
    execute_process(
        COMMAND ${GNNMARK_BIN} ${ARGN}
        RESULT_VARIABLE rv
        OUTPUT_VARIABLE out
        ERROR_QUIET)
    if(NOT rv EQUAL 0)
        message(FATAL_ERROR
            "gnnmark ${args}: expected exit 0, got '${rv}'")
    endif()
    foreach(title IN LISTS titles)
        string(FIND "${out}" "${title}" at)
        if(at EQUAL -1)
            message(FATAL_ERROR
                "gnnmark ${args}: '${title}' missing from its output")
        endif()
    endforeach()
    set(last_out "${out}" PARENT_SCOPE)
endfunction()

expect_titles("Table I:;Workload statistics at scale 1" list)

# Table I holds exactly these nine rows, in this order, cell by cell:
# the printer pads cells with two or more spaces, which become "|"
# here.
set(table_one
    "PSAGE-MVL|PinSAGE|DGL|Recommendation|MovieLens (synthetic)|\
Heterogeneous"
    "PSAGE-NWP|PinSAGE|DGL|Recommendation|Nowplaying (synthetic)|\
Heterogeneous"
    "STGCN|STGCN|PyTorch|Traffic forecasting|METR-LA (synthetic)|\
Dynamic (spatio-temporal)"
    "DGCN|DeepGCN|PyG|Molecular property prediction|\
ogbg-mol (synthetic)|Homogeneous (batched)"
    "GW|GraphWriter|PyTorch|Text generation|AGENDA (synthetic)|\
Knowledge graph"
    "KGNNL|k-GNN|PyG|Protein classification|PROTEINS (synthetic)|\
Homogeneous (batched)"
    "KGNNH|k-GNN|PyG|Protein classification|PROTEINS (synthetic)|\
Homogeneous (batched)"
    "ARGA|ARGA|PyG|Node clustering|Cora (synthetic)|Homogeneous"
    "TLSTM|Tree-LSTM|DGL|Sentiment classification|SST (synthetic)|\
Tree (batched)")
string(FIND "${last_out}" "Table I:" begin)
string(SUBSTRING "${last_out}" ${begin} -1 table)
string(FIND "${table}" "\n\n" end)
string(SUBSTRING "${table}" 0 ${end} table)
string(REPLACE "\n" ";" lines "${table}")
# The title, the header and the rule come before the rows.
list(SUBLIST lines 3 -1 rows)
list(LENGTH rows count)
if(NOT count EQUAL 9)
    message(FATAL_ERROR "gnnmark list: Table I has ${count} rows, not 9")
endif()
foreach(expected row IN ZIP_LISTS table_one rows)
    string(STRIP "${row}" row)
    string(REGEX REPLACE "  +" "|" row "${row}")
    if(NOT row STREQUAL expected)
        message(FATAL_ERROR
            "gnnmark list: Table I row '${row}', expected '${expected}'")
    endif()
endforeach()

expect_titles("Fig. 2:;Fig. 3:;Fig. 4:;Fig. 5:;Fig. 6:;Fig. 7:;Fig. 8:"
    characterize --scale 0.05 --iters 1)
expect_titles("L1 bypass for irregular operators;fp16 training vs fp32;\
Zero-value compression of H2D transfers;\
GEMM+SpMM+Conv share and step time: training vs inference;\
Generation sensitivity: V100 vs A100-like;\
Cold instruction-fetch penalty sweep (TLSTM)"
    ablations --scale 0.05)
