package repro.terbench

import org.apache.spark.sql.SparkSession
import repro.cdd.Rule
import repro.core.{Engine, ImputedTuple, Params, Pivots, TupleSketch, UseCDD}
import repro.impute.Repo
import repro.index.DRIndex
import repro.spark.SparkTER

/** The program calls whose signatures take the topic vocabulary. They are
  * expected to lose that parameter (keyword presence computed from the
  * query keywords instead), so every such call of the benchmark is here.
  */
object Api {

  def sketch(t: ImputedTuple, pivots: Pivots, vocab: Set[String]): TupleSketch =
    TupleSketch.of(t, pivots, vocab)

  /** TER-iDS as `Harness.engineFor(TERiDS, _)` builds it: CDD rules, both
    * indexes, the ER-grid and pruning.
    */
  def teridsEngine(d: Int, rules: Seq[Rule], repo: Repo, pivots: Pivots, vocab: Set[String], params: Params): Engine =
    new Engine(d, rules, Some(repo), pivots, vocab, params,
      useCddIndex = true, useDrIndex = true, useGrid = true, usePruning = true, imputeKind = UseCDD)

  def drIndex(repo: Repo, pivots: Pivots, vocab: Set[String]): DRIndex =
    new DRIndex(repo, pivots, vocab)

  def sparkTER(spark: SparkSession, d: Int, rules: Seq[Rule], repo: Repo, pivots: Pivots,
               vocab: Set[String], params: Params): SparkTER =
    new SparkTER(spark, d, rules, repo, pivots, vocab, params)
}
