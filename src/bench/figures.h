/**
 * @file
 * The paper's figures and tables (`memento_sim figures`): a table of
 * render functions, one per figure, table or study, whose ids are the
 * names of the binaries that used to print them. All run cells of the
 * selected figures go through one SweepEngine, and a cell that several
 * figures want (or one figure wants several times) runs once.
 */

#ifndef MEMENTO_BENCH_FIGURES_H
#define MEMENTO_BENCH_FIGURES_H

#include <ostream>
#include <string>
#include <vector>

#include "machine/sweep.h"

namespace memento {

/** One entry of the figure table (defined in figures.cc). */
struct FigureSpec;

/**
 * The figures named by @p ids, in the order given; "all" or no id
 * selects every figure in table order. Throws SimError(Config) naming
 * the valid ids for an unknown id.
 */
std::vector<const FigureSpec *>
selectFigures(const std::vector<std::string> &ids);

/**
 * Compute the cells of @p figs on @p engine and write each figure to
 * @p os in order. Returns false, having written nothing, when the
 * sweep was stopped; throws SimError for the first failed cell.
 */
bool renderFigures(const std::vector<const FigureSpec *> &figs,
                   SweepEngine &engine, std::ostream &os);

} // namespace memento

#endif // MEMENTO_BENCH_FIGURES_H
