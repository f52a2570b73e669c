package repro.cdd

import scala.collection.mutable
import scala.util.Random
import repro.core.Text
import repro.impute.Repo

/** Rule discovery from the data repository R (§2.2 "CDD Rule Detection").
  *
  * The cited miners ([19] Kwashie et al., [41] Wang et al.) are standalone
  * papers; this is a functional equivalent producing rules of the exact form
  * Def. 3 consumes:
  *
  *  1. For every (determinant x, dependent j) attribute pair, sample tuple
  *     pairs from R and find the smallest candidate radius ε such that pairs
  *     with `dist_x ≤ ε` have a bounded dependent distance `h_j` — a
  *     differential dependency `A_x → A_j, {[0,ε],[0,h_j]}` [35].
  *  2. Where no interval rule is tight enough, fall back to editing-rule
  *     style constants [12]: for frequent values v of A_x, bound the
  *     dependent distance among tuples with `A_x = v`.
  *  3. Combine pairs of accepted single-determinant interval rules into
  *     2-determinant CDDs when the conjunction tightens the dependent
  *     interval (the lattice's Level-2 rules, Fig. 2).
  *
  * All sampling is seeded, so mining is deterministic in R.
  */
object RuleMiner {

  private val SamplePairs          = 4000
  private val EpsCandidates        = Seq(0.2, 0.3, 0.4, 0.5)
  private val MinSupport           = 5
  private val DepQuantile          = 0.95 // approximate-DD tolerance to sampling noise
  private[cdd] val MaxDep          = 0.55 // CDD tightness: max accepted dependent radius
  private[cdd] val DdMaxDep        = 0.85 // DD tightness (looser ⇒ more samples, worse accuracy)
  private val ConstMinCount        = 2
  private val IntervalLevels       = 2    // emit up to this many eps levels per (x, j)
  private val MaxConstRulesPerPair = 150
  private val WithinGroupPairs     = 60
  private val Seed                 = 42L

  /** Pairwise per-attribute Jaccard distances of a deterministic pair
    * sample. Uniform random pairs of textual tuples are almost surely
    * dissimilar on every attribute, which would starve the differential
    * analysis; like real DD miners, we bias sampling towards *plausibly
    * similar* pairs via a token-blocking inverted index (pairs sharing at
    * least one token on some attribute), plus a uniform background sample.
    */
  private def samplePairDists(repo: Repo): Array[(Int, Int, Array[Double])] = {
    val rnd  = new Random(Seed)
    val n    = repo.size
    val seen = scala.collection.mutable.HashSet.empty[(Int, Int)]
    val sel  = Array.newBuilder[(Int, Int)]
    def add(i1: Int, i2: Int): Unit = {
      val k = if (i1 < i2) (i1, i2) else (i2, i1)
      if (i1 != i2 && seen.add(k)) sel += k
    }
    // Blocked pairs: same token on some attribute.
    for (x <- 0 until repo.d) {
      val inv = scala.collection.mutable.HashMap.empty[String, List[Int]]
      repo.tokenRows.indices.foreach { i =>
        repo.tokenRows(i)(x).foreach(t => inv.update(t, i :: inv.getOrElse(t, Nil)))
      }
      val budget = SamplePairs / (2 * repo.d)
      var taken  = 0
      inv.valuesIterator.filter(_.lengthCompare(1) > 0).toVector.sortBy(_.head).foreach { ids =>
        val v = ids.toVector
        var t = 0
        while (t < math.min(6, v.size) && taken < budget) {
          add(v(rnd.nextInt(v.size)), v(rnd.nextInt(v.size)))
          t += 1; taken += 1
        }
      }
    }
    // Uniform background pairs.
    var k = 0
    while (k < SamplePairs / 2) { add(rnd.nextInt(n), rnd.nextInt(n)); k += 1 }
    sel.result().map { case (i1, i2) =>
      val ds = Array.tabulate(repo.d)(x => Text.jdist(repo.tokenRows(i1)(x), repo.tokenRows(i2)(x)))
      (i1, i2, ds)
    }
  }

  private def quantile(vs: Array[Double], q: Double): Double = {
    val s = vs.sorted
    s(math.min(s.length - 1, (q * s.length).toInt))
  }

  /** Single-determinant interval (DD-style) rules under a dependent-radius cap. */
  private def intervalRules(repo: Repo, depCap: Double,
                            pairs: Array[(Int, Int, Array[Double])]): Vector[Rule] = {
    val out = Vector.newBuilder[Rule]
    for (j <- 0 until repo.d; x <- 0 until repo.d if x != j) {
      var emitted = 0
      EpsCandidates.foreach { eps =>
        if (emitted < IntervalLevels) {
          val sel = pairs.filter(_._3(x) <= eps + 1e-12)
          if (sel.length >= MinSupport) {
            val hj = quantile(sel.map(_._3(j)), DepQuantile)
            if (hj <= depCap) {
              out += Rule(j, Map(x -> DistRange(0.0, eps)), 0.0, hj)
              emitted += 1
            }
          }
        }
      }
    }
    out.result()
  }

  /** Constant (editing-rule-style) rules: A_x = v ⇒ dependent distance ≤ h. */
  private def constantRules(repo: Repo, depCap: Double, exactDep: Boolean,
                            onlyForPairs: Set[(Int, Int)]): Vector[Rule] = {
    val rnd = new Random(Seed + 1)
    val out = Vector.newBuilder[Rule]
    for (j <- 0 until repo.d; x <- 0 until repo.d if x != j) {
      if (onlyForPairs.isEmpty || onlyForPairs.contains((x, j))) {
        val groups = repo.rows.indices.groupBy(i => repo.rows(i)(x))
        var added  = 0
        // Deterministic order: most frequent values first, ties by value.
        groups.toSeq.sortBy { case (v, is) => (-is.size, v) }.foreach { case (v, is) =>
          if (is.size >= ConstMinCount && added < MaxConstRulesPerPair) {
            val dists = Array.newBuilder[Double]
            var k     = 0
            while (k < WithinGroupPairs) {
              val i1 = is(rnd.nextInt(is.size))
              val i2 = is(rnd.nextInt(is.size))
              if (i1 != i2)
                dists += Text.jdist(repo.tokenRows(i1)(j), repo.tokenRows(i2)(j))
              k += 1
            }
            val ds = dists.result()
            val hj = if (ds.isEmpty) 1.0 else quantile(ds, DepQuantile)
            if (hj <= depCap) {
              out += Rule(j, Map(x -> ValueEq(v)), 0.0, if (exactDep) 0.0 else hj)
              added += 1
            }
          }
        }
      }
    }
    out.result()
  }

  /** CDD rules: tight interval rules + constant fallback + 2-det combinations. */
  def mineCDDs(repo: Repo): Vector[Rule] = {
    val pairs  = samplePairDists(repo)
    val single = intervalRules(repo, MaxDep, pairs)
    // Attribute pairs where no interval rule qualified get constant rules.
    val covered   = single.map(r => (r.det.keys.head, r.dep)).toSet
    val allPairs  = (for (j <- 0 until repo.d; x <- 0 until repo.d if x != j) yield (x, j)).toSet
    val uncovered = allPairs -- covered
    val consts    = constantRules(repo, MaxDep, exactDep = false, uncovered)
    // Level-2 combinations of single interval rules on the same dependent.
    val combos = Vector.newBuilder[Rule]
    single.groupBy(_.dep).foreach { case (j, rs) =>
      val sorted = rs.sortBy(_.det.keys.head)
      for (a <- sorted.indices; b <- a + 1 until sorted.size) {
        val (ra, rb) = (sorted(a), sorted(b))
        val (xa, xb) = (ra.det.keys.head, rb.det.keys.head)
        val ea       = ra.det(xa).asInstanceOf[DistRange]
        val eb       = rb.det(xb).asInstanceOf[DistRange]
        val sel      = pairs.filter(p => p._3(xa) <= ea.hi + 1e-12 && p._3(xb) <= eb.hi + 1e-12)
        if (sel.length >= MinSupport) {
          val hj = quantile(sel.map(_._3(j)), DepQuantile)
          if (hj < math.min(ra.depHi, rb.depHi) - 0.01)
            combos += Rule(j, Map(xa -> ea, xb -> eb), 0.0, hj)
        }
      }
    }
    sortRules(single ++ consts ++ combos.result())
  }

  /** Plain DD rules [35]: interval-only, looser dependent radius. */
  def mineDDs(repo: Repo): Vector[Rule] = {
    val pairs = samplePairDists(repo)
    sortRules(intervalRules(repo, DdMaxDep, pairs))
  }

  /** Editing rules [12]: constants only, dependent values copied exactly. */
  def mineEditingRules(repo: Repo): Vector[Rule] =
    sortRules(constantRules(repo, depCap = 0.3, exactDep = true, Set.empty))

  private def sortRules(rs: Vector[Rule]): Vector[Rule] =
    rs.distinct.sortBy(r => (r.dep, r.det.keys.min, r.det.size, r.toString))
}
