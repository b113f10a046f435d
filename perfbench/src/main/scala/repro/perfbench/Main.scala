package repro.perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.SparkSession
import repro.baseline.{GllCFPQ, HellingsCFPQ}
import repro.core.{CFPQEngine, CFPQResult, DenseCFPQ, SparkBlockCFPQ, SparkDataFrameCFPQ, SparseCFPQ}
import repro.data.Datasets

/** The CFPQ benchmark: one workload in one JVM.
  *
  * {{{
  *   Main --workload <q1-repeated|q2-repeated> --seed <n> --seconds <s> --trace <0|1>
  * }}}
  *
  * Set-up builds g1–g3 and their base ontologies (node ids permuted by the
  * seed), computes the DuckDB reference relations, and warms every engine
  * up. Then it runs whole rounds — every engine on each of its graphs — until
  * `seconds` have passed. Each solve is timed alone, after a GC, and its R_S
  * is checked outside the timed region. With `--trace 1` every round also
  * records the layer counters: JVM allocation and GC per local solve, Spark
  * listener counters per Spark solve, and replays of the closures through
  * the kernel APIs. The last line of standard output is the JSON result.
  */
object Main {

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  /** One engine of the benchmark.
    *
    * @param metric end-to-end metric: Σ over graphs of the median solve time
    * @param layer  prefix of the engine's per-layer metrics
    * @param graphs how many of g1–g3 it solves (Spark engines solve g1 only)
    * @param batch  back-to-back solves per timing
    */
  final case class Engine(metric: String, layer: String, engine: CFPQEngine,
                          graphs: Int, batch: Int) {
    def isSpark: Boolean = layer.startsWith("core.spark")
  }

  val BlockSize = 1024
  val ShufflePartitions = 16
  val LocalWarmups = 3

  def main(argv: Array[String]): Unit = {
    val entry = System.nanoTime()
    val stealStart = stealTicks()
    val args = parse(argv.toList) match {
      case Right(a) => a
      case Left(msg) =>
        Console.err.println(s"perfbench: $msg\nusage: --workload <${Workload.all.map(_.name).mkString("|")}> " +
          "--seed <n> --seconds <s> --trace <0|1>")
        sys.exit(2)
    }
    val cores = Runtime.getRuntime.availableProcessors()
    // Only the traced run starts Spark: see PerLayer for why the Spark
    // engines are not end-to-end metrics.
    val spark = if (!args.trace) None else Some {
      val localDir = new java.io.File(sys.props.getOrElse("perfbench.dir", ".bench_build"), "spark-local")
      val s = SparkSession.builder
        .master(s"local[$cores]")
        .appName("cfpq-perfbench")
        .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
        .config("spark.ui.enabled", value = false)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", localDir.getAbsolutePath)
        .getOrCreate()
      s.sparkContext.setLogLevel("WARN")
      s
    }
    val code =
      try run(args, spark, entry)
      finally spark.foreach(_.stop())
    val env = Seq(
      "workload" -> args.workload.name, "seed" -> args.seed.toString, "trace" -> args.trace.toString,
      "nproc" -> cores.toString,
      "jvm_flags" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
        .filterNot(_.startsWith("--add-opens")).mkString(" "),
      "spark_master" -> spark.map(_.sparkContext.master).getOrElse("none"),
      "shuffle_partitions" -> ShufflePartitions.toString,
      "git_sha" -> sys.props.getOrElse("perfbench.git", "unknown"),
      "steal_s" -> f"${(stealTicks() - stealStart) / 100.0}%.2f",
      "run_s" -> f"${(System.nanoTime() - entry) / 1e9}%.1f",
    )
    Console.err.println("env " + Json.obj(env.map { case (k, v) => k -> Json.str(v) }))
    sys.exit(code)
  }

  private def parse(argv: List[String]): Either[String, Args] = {
    val kv = argv.grouped(2).collect { case List(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    if (argv.size % 2 != 0 || kv.size * 2 != argv.size) return Left(s"bad arguments: ${argv.mkString(" ")}")
    for {
      w <- kv.get("workload").flatMap(Workload.byName).toRight("--workload missing or unknown")
      s <- kv.get("seed").flatMap(_.toLongOption).toRight("--seed must be an integer")
      n <- kv.get("seconds").flatMap(_.toIntOption).filter(_ > 0).toRight("--seconds must be a positive integer")
      t <- kv.get("trace").filter(Set("0", "1")).toRight("--trace must be 0 or 1")
    } yield Args(w, s, n, t == "1")
  }

  /** Ticks of CPU steal on this host so far (the `cpu` line of /proc/stat). */
  private def stealTicks(): Long =
    try {
      val f = scala.io.Source.fromFile("/proc/stat")
      try f.getLines().next().trim.split("\\s+").lift(8).map(_.toLong).getOrElse(0L)
      finally f.close()
    } catch { case _: Exception => 0L }

  /** CPU time, in ns, of the JVM's garbage-collector threads so far: pauses
    * and concurrent work alike, read from the threads' schedstat files.
    * A collection's pause time alone would read 0 for most solves, whose
    * garbage fits in the young generation of the fixed heap.
    */
  private def gcCpuNs(): Long = {
    val tasks = new java.io.File("/proc/self/task").listFiles()
    if (tasks == null) 0L
    else tasks.iterator.map { t =>
      def read(f: String) =
        try java.nio.file.Files.readString(new java.io.File(t, f).toPath).trim
        catch { case _: java.io.IOException => "" }
      val name = read("comm")
      if (name.startsWith("GC Thread") || name.startsWith("G1 "))
        read("schedstat").split(' ').headOption.flatMap(_.toLongOption).getOrElse(0L)
      else 0L
    }.sum
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Samples per metric per graph; a metric's value is Σ over graphs of the
    * median of its samples (NaN, printed as null, if it has none).
    */
  private final class Samples {
    private val m = mutable.LinkedHashMap.empty[String, mutable.LinkedHashMap[String, mutable.ArrayBuffer[Double]]]
    def add(metric: String, graph: String, v: Double): Unit =
      m.getOrElseUpdate(metric, mutable.LinkedHashMap.empty).getOrElseUpdate(graph, mutable.ArrayBuffer.empty) += v
    def value(metric: String): Double =
      m.get(metric).fold(Double.NaN)(_.valuesIterator.map(v => median(v.toSeq)).sum)
  }

  private def run(args: Args, spark: Option[SparkSession], entry: Long): Int = {
    val w = args.workload
    val q = w.query
    val samples = new Samples

    // Set-up: graphs, indexes, references.
    val graphs = Workload.specs.map { case (spec, baseSpec) =>
      val t0 = System.nanoTime()
      val corpus = spec.graph
      samples.add("data.graph_build_s", spec.name, (System.nanoTime() - t0) / 1e9)
      val baseCorpus = baseSpec.graph
      val perm = Workload.permutation(baseCorpus.numNodes, args.seed * 1000003L + baseSpec.seed)
      val graph = Workload.relabel(corpus, perm)
      val base = Workload.relabel(baseCorpus, perm)
      val t1 = System.nanoTime()
      graph.byLabel; graph.outIndex
      samples.add("graph.index_s", spec.name, (System.nanoTime() - t1) / 1e9)
      base.byLabel; base.outIndex
      val bg = BenchGraph(spec, graph, base, Reference.relation(graph, w.sql), Reference.relation(base, w.sql))
      val selfCheck = Checks.repeated(bg.ref, bg.baseRef, spec.repeatK, base.numNodes)
        .orElse(if (w.symmetric) Checks.symmetric(bg.ref) else None)
      selfCheck.foreach(m => throw new IllegalStateException(s"reference for ${spec.name}: $m"))
      Console.err.println(s"graph ${spec.name}: nodes=${graph.numNodes} edges=${graph.edges.size} " +
        s"|R_S|=${bg.ref.size} base ${baseSpec.name}: nodes=${base.numNodes} |R_S|=${bg.baseRef.size}")
      bg
    }

    val engines = Seq(
      Engine("sparse_csr_s", "core.sparse_csr", SparseCFPQ, 3, w.sparseBatch),
      Engine("dense_s", "core.dense", DenseCFPQ, 3, 1),
      Engine("gll_s", "baseline.gll", new GllCFPQ(q.grammar, q.start), 3, w.sparseBatch),
      Engine("hellings_s", "baseline.hellings", HellingsCFPQ, 3, w.sparseBatch),
    ) ++ spark.toSeq.flatMap(s => Seq(
      Engine("core.spark_block.solve_s", "core.spark_block", new SparkBlockCFPQ(s, BlockSize), 1, 1),
      Engine("core.spark_df.solve_s", "core.spark_df", new SparkDataFrameCFPQ(s), 1, 1),
    ))

    // Warm-up: the local engines on the base ontologies and on g1; the Spark
    // engines on the smallest corpus ontology, which costs the same per-job
    // start-up as g1 at a fraction of the data.
    engines.foreach { e =>
      val warm =
        if (e.isSpark) Seq(Datasets.skos.graph)
        else Seq.fill(LocalWarmups)(graphs.map(_.base)).flatten :+ graphs.head.graph
      warm.foreach { g =>
        val t0 = System.nanoTime()
        e.engine.solve(g, q.cnf)
        Console.err.println(f"warmup ${e.metric} n=${g.numNodes} ${(System.nanoTime() - t0) / 1e9}%.3f s")
      }
    }

    val counters = spark.map(s => new SparkCounters(s.sparkContext))
    val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    var attempted, failed = 0L
    var wrong = false

    /** Check one solve; returns false if it failed. */
    def check(e: Engine, bg: BenchGraph, res: CFPQResult): Boolean = {
      val rel = Rel.of(res("S"))
      val problem = Checks.equalsReference(rel, bg.ref)
        .orElse(if (w.symmetric) Checks.symmetric(rel) else None)
        .orElse(Checks.repeated(rel, bg.baseRef, bg.spec.repeatK, bg.base.numNodes))
      problem.foreach { m => Console.err.println(s"FAILED ${e.metric} on ${bg.name}: $m"); wrong = true }
      problem.isEmpty
    }

    val setupS = (System.nanoTime() - entry) / 1e9
    val start = System.nanoTime()
    var rounds = 0
    while (rounds == 0 || (System.nanoTime() - start) / 1e9 < args.seconds) {
      rounds += 1
      for (e <- engines; bg <- graphs.take(e.graphs)) {
        System.gc()
        val gc0 = gcCpuNs()
        val alloc0 = threads.getCurrentThreadAllocatedBytes
        val t0 = System.nanoTime()
        val outcome: Either[Throwable, (Seq[CFPQResult], Option[SparkSolve])] =
          try Right(counters.filter(_ => e.isSpark) match {
            case Some(c) =>
              val (r, s) = c.measure(e.engine.solve(bg.graph, q.cnf))
              (Seq(r), Some(s))
            case None => (Seq.fill(e.batch)(e.engine.solve(bg.graph, q.cnf)), None)
          }) catch { case t: Throwable if !t.isInstanceOf[VirtualMachineError] => Left(t) }
        val perSolve = (System.nanoTime() - t0) / 1e9 / e.batch
        val allocPerSolve = (threads.getCurrentThreadAllocatedBytes - alloc0).toDouble / e.batch
        val gcPerSolve = (gcCpuNs() - gc0) / 1e9 / e.batch
        attempted += e.batch
        outcome match {
          case Left(t) =>
            failed += e.batch
            Console.err.println(s"FAILED ${e.metric} on ${bg.name}: $t")
          case Right((results, sparkSolve)) =>
            failed += results.count(r => !check(e, bg, r))
            samples.add(e.metric, bg.name, sparkSolve.map(_.wallMs / 1e3).getOrElse(perSolve))
            Console.err.println(f"round $rounds ${e.metric} ${bg.name} ${perSolve}%.4f s")
            if (args.trace) {
              sparkSolve match {
                case Some(s) =>
                  Console.err.println(s"spark ${e.layer} ${bg.name} $s")
                  addSpark(samples, e.layer, bg.name, s, results.head.iterations)
                case None =>
                  samples.add(s"${e.layer}.alloc_mb", bg.name, allocPerSolve / 1e6)
                  samples.add(s"${e.layer}.gc_s", bg.name, gcPerSolve)
              }
              val replay = e.metric match {
                case "sparse_csr_s"  => Some(Replay.csr(bg.graph, q.cnf))
                case "dense_s"       => Some(Replay.bit(bg.graph, q.cnf))
                case "core.spark_block.solve_s" =>
                  spark.map(Replay.block(_, bg.graph, q.cnf, BlockSize))
                case _               => None
              }
              replay.foreach { r =>
                r.perIteration.foreach(l => Console.err.println(s"trace ${bg.name} $l"))
                r.mismatch(results.head) match {
                  case Some(m) =>
                    Console.err.println(s"FAILED replay of ${e.metric} on ${bg.name}: $m")
                    wrong = true; failed += 1
                  case None => r.counters.foreach { case (k, v) => samples.add(k, bg.name, v) }
                }
                attempted += 1
              }
            }
        }
      }
    }
    val timedS = (System.nanoTime() - start) / 1e9
    Console.err.println(f"rounds=$rounds timed=$timedS%.1f s setup=$setupS%.1f s")

    val metrics: Seq[(String, Double, String)] =
      if (!args.trace)
        ("setup_s", setupS, "s") +: engines.map(e => (e.metric, samples.value(e.metric), "s"))
      else {
        engines.filterNot(_.isSpark).foreach { e =>
          Console.err.println(f"traced ${e.metric} ${samples.value(e.metric)}%.4f s")
        }
        PerLayer.units.map {
          case (n @ "linalg.csr.useful_ratio", u) =>
            (n, samples.value("linalg.csr.new_nnz") / samples.value("linalg.csr.product_nnz"), u)
          case (n, u) => (n, samples.value(n), u)
        }
      }
    println(Json.obj(Seq(
      "correct" -> (!wrong).toString,
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> Json.obj(metrics.map { case (n, v, u) =>
        n -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
      }),
    )))
    0
  }

  private def addSpark(layers: Samples, prefix: String, graph: String, s: SparkSolve, iterations: Int): Unit = {
    layers.add(s"$prefix.jobs", graph, s.jobs)
    layers.add(s"$prefix.jobs_per_iter", graph, s.jobs.toDouble / iterations)
    layers.add(s"$prefix.stages", graph, s.stages)
    layers.add(s"$prefix.tasks", graph, s.tasks)
    layers.add(s"$prefix.shuffle_write_mb", graph, s.shuffleWriteBytes / 1e6)
    layers.add(s"$prefix.task_cpu_s", graph, s.taskCpuNs / 1e9)
    layers.add(s"$prefix.non_task_s", graph, s.nonTaskMs / 1e3)
    layers.add(s"$prefix.rdds_left", graph, s.rddsLeft)
    if (prefix == "core.spark_df") layers.add(s"$prefix.collect_s", graph, s.lastJobMs / 1e3)
  }
}

/** The per-layer metrics a traced run reports, with their units.
  *
  * The Spark engines' solve times are here and not end-to-end metrics: a
  * run that includes them pays for a SparkSession start and about 20 s of
  * JIT warm-up before its first settled Spark solve, and one Spark solve of
  * g1 then takes 7–17 s on four cores. A run kept near a minute gets at
  * most one settled sample of each, and single samples differed by up to
  * 30% from one JVM to the next.
  */
object PerLayer {
  private val spark = Seq("solve_s" -> "s", "jobs" -> "count", "jobs_per_iter" -> "count", "stages" -> "count",
    "tasks" -> "count", "shuffle_write_mb" -> "MB", "task_cpu_s" -> "s", "non_task_s" -> "s",
    "rdds_left" -> "count")
  private val jvm = Seq("alloc_mb" -> "MB", "gc_s" -> "s")
  val units: Seq[(String, String)] = Seq(
    "data.graph_build_s" -> "s", "graph.index_s" -> "s",
    "core.init_s" -> "s", "core.iterations" -> "count", "core.result_pairs" -> "count",
    "core.result_set_s" -> "s",
    "linalg.csr.multiply_s" -> "s", "linalg.csr.multiply_calls" -> "count",
    "linalg.csr.flops" -> "count", "linalg.csr.product_nnz" -> "count", "linalg.csr.union_s" -> "s",
    "linalg.csr.new_nnz" -> "count", "linalg.csr.useful_ratio" -> "ratio",
    "linalg.bit.multiply_s" -> "s", "linalg.bit.or_s" -> "s",
    "linalg.block.step_s" -> "s", "linalg.block.nnz_s" -> "s", "linalg.block.collect_s" -> "s",
  ) ++ spark.map { case (k, u) => s"core.spark_block.$k" -> u } ++
    spark.map { case (k, u) => s"core.spark_df.$k" -> u } ++ Seq("core.spark_df.collect_s" -> "s") ++
    Seq("core.sparse_csr", "core.dense", "baseline.gll", "baseline.hellings").flatMap { e =>
      jvm.map { case (k, u) => s"$e.$k" -> u }
    }
}

/** Just enough JSON for the result line. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
    } + "\""
  def num(v: Double): String = if (v.isNaN || v.isInfinite) "null" else v.toString
  def obj(kv: Iterable[(String, String)]): String = kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
